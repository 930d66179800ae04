package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// runSeconds is the fixed measurement window of one run. Lateness on a
// backlogged pull stream grows with run length (see the package doc),
// so every run, on every commit, measures the same window.
const runSeconds = 10

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one end-to-end metric: Bound is the share of the
// parent's median by which it may worsen before a change is rejected.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is one per-layer metric; per-layer metrics have no bound.
type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var workloads = []workloadSpec{
	{"wire-10ms", "nproc loopback TCP clients, one stream each, one SAMPLE per 10 ms open loop: the whole wire path at a load where pacing and ingest decide"},
	{"fleet-10ms-8k", "8192 in-process pull streams at 10 ms with checkpoints every 16 rotations: the wheel and crash-safe state writes at density, no TCP"},
	{"fleet-unpaced-1k", "closed loop, 1024 streams x a fixed interval count on the boosted chain, one in eight with stuck/zero faults: the scoring ceiling, no pacing"},
}

// gatedWorkloads are the workloads BENCHMARK.json lists, the ones a
// change is held to. fleet-unpaced-1k runs and checks like the others
// but is left out: it is CPU-bound, and on a shared 2-vCPU host whose
// own speed swings by about ±20% its verdict rate and cycle-time tail
// move between runs by more than any bound the gate allows (see the
// package doc).
var gatedWorkloads = workloads[:2]

// endToEnd are the metrics a user of the detector sees; untraced runs
// print exactly these. Each bound is three times the larger of the
// widest 10-seed spread and the drift between two sets of runs on any
// listed workload (perfbench/spread.json), rounded up and capped at
// 0.25. The cold start behind setup_s is CPU-bound, and the host's CPU
// speed drifts over tens of seconds, so setup_s sits at the cap.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"verdicts_per_s", "1/s", "higher", 0.16},
	{"delivered_frac", "frac", "higher", 0.16},
	{"latency_p50_ms", "ms", "lower", 0.18},
	{"latency_p99_ms", "ms", "lower", 0.08},
	{"heap_mb", "MB", "lower", 0.09},
}

// perLayer are the single-layer metrics; traced runs print exactly
// these. A layer a workload does not exercise reports 0.
var perLayer = []layerSpec{
	{"e2e.goodput_vps", "1/s", "higher"},
	{"fleet.rotation_ms", "ms", "lower"},
	{"fleet.harvest_slip_ms_p50", "ms", "lower"},
	{"fleet.harvest_slip_ms_p99", "ms", "lower"},
	{"fleet.read_to_verdict_us_p50", "us", "lower"},
	{"fleet.read_to_verdict_us_p99", "us", "lower"},
	{"fleet.harvest_to_verdict_us_p99", "us", "lower"},
	{"fleet.verdicts_per_batch", "count", "higher"},
	{"fleet.queue_depth_max", "count", "lower"},
	{"fleet.lag_rotations_max", "count", "lower"},
	{"fleet.shed_intervals", "count", "lower"},
	{"fleet.lost_verdicts", "count", "lower"},
	{"fleet.checkpoints", "count", "higher"},
	{"fleet.checkpoint_errors", "count", "lower"},
	{"ingest.shed_frac", "frac", "lower"},
	{"ingest.send_us_p50", "us", "lower"},
	{"ingest.send_us_p99", "us", "lower"},
	{"ingest.server_writes_per_verdict", "count", "lower"},
	{"ingest.verdict_batch_frac", "frac", "higher"},
	{"ingest.evictions", "count", "lower"},
	{"core.observe_ns", "ns", "lower"},
	{"compiled.score_ns_per_vector", "ns", "lower"},
	{"core.save_state_ms", "ms", "lower"},
	{"core.checkpoint_bytes", "bytes", "lower"},
	{"collect.corpus_s", "s", "lower"},
	{"core.train_s", "s", "lower"},
	{"core.replicate_ms", "ms", "lower"},
	{"runtime.gc_pause_ms_p99", "ms", "lower"},
	{"runtime.sched_latency_ms_p99", "ms", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// benchmarkFile is BENCHMARK.json, field for field.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// specJSON renders BENCHMARK.json from the definitions above, so the
// committed spec and the metrics the program prints cannot drift
// apart.
func specJSON() ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  gatedWorkloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, fmt.Errorf("encoding spec: %w", err)
	}
	return buf.Bytes(), nil
}

func writeSpec(path string) error {
	b, err := specJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
