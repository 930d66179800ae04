package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

const (
	wlWire    = "wire-10ms"
	wlPaced   = "fleet-10ms-8k"
	wlUnpaced = "fleet-unpaced-1k"
	// setupReps cold starts per run; setup_s is their median.
	setupReps = 9
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	// The benchmark's own test shrinks these two.
	setupReps int
	horizon   int // fleet-unpaced-1k intervals per stream per pass
	// corrupt flips one reference verdict before the comparison: the
	// check must then fail (the benchmark's own test sets it).
	corrupt bool
	scratch string

	clk       *clock
	tr        *tracer // setup spans (traced runs only)
	chain     *core.FallbackChain
	replicate func() (*core.FallbackChain, error)
	in        *inputs
	rs        *referenceSet
}

// refs replays, for n intervals, the inputs of the workload's first
// streams streams (every faulty-th on a faulty trace). It runs once per
// run; both passes of a traced run share the result.
func (b *bench) refs(streams, faulty, n int) (*referenceSet, error) {
	if b.rs != nil {
		return b.rs, nil
	}
	used := make([]variant, streams)
	for i := range used {
		used[i] = b.in.assign(b.seed, i, faulty)
	}
	rs, err := b.in.references(b.replicate, used, n)
	if err != nil {
		return nil, err
	}
	if b.corrupt {
		ref := rs.refs[b.in.id(used[0])]
		ref.score[0] = -ref.score[0] - 1
	}
	b.rs = rs
	return rs, nil
}

// phase is one measured pass of a workload.
type phase struct {
	attempted int64 // samples due (paced) or intervals scheduled (closed loop)
	failed    int64 // samples answered wrongly or not accounted for
	delivered int64 // correct verdicts of window samples by the deadline
	inWindow  int64 // verdicts of window samples by the deadline
	ontime    int64 // of those, within the latency limit
	unchecked int64 // verdicts past the reference's length
	passes    int   // closed-loop passes

	vps, goodput float64
	latMs        []float64
	// Closed-loop latency percentiles: medians over passes of each
	// pass's percentile, over latSamples samples.
	latP50, latP99 float64
	latSamples     int64
	slipMs         []float64
	r2vUs          []float64
	heapMB         float64
	heapCycles     int // collections heap_mb is the median over
	observeNs      float64
	spread         float64 // within-run spread of the verdict rate
	layer          map[string]float64
	checks         []string
}

func newPhase() *phase { return &phase{layer: make(map[string]float64)} }

func (p *phase) checkf(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

// runtimeLayers fills the runtime/metrics per-layer numbers from two
// snapshots bracketing the window.
func (p *phase) runtimeLayers(before, after runtimeHists) {
	p.layer["runtime.gc_pause_ms_p99"] = histDeltaQuantile(before.gcPause, after.gcPause, 0.99) * 1e3
	p.layer["runtime.sched_latency_ms_p99"] = histDeltaQuantile(before.schedLat, after.schedLat, 0.99) * 1e3
}

// endToEnd returns the end-to-end metrics of a phase.
func (p *phase) endToEnd(setupS float64) map[string]float64 {
	frac := 0.0
	if p.attempted > 0 {
		frac = float64(p.delivered) / float64(p.attempted)
	}
	p50, p99 := p.latP50, p.latP99
	if p.passes == 0 {
		lat := append([]float64(nil), p.latMs...)
		p50, p99 = percentile(lat, 0.5), percentile(lat, 0.99)
	}
	return map[string]float64{
		"setup_s":        setupS,
		"verdicts_per_s": p.vps,
		"delivered_frac": frac,
		"latency_p50_ms": p50,
		"latency_p99_ms": p99,
		"heap_mb":        p.heapMB,
	}
}

// runPhase runs the workload once, traced when tr is enabled.
func (b *bench) runPhase(tr *tracer) (*phase, error) {
	switch b.workload {
	case wlWire:
		return b.runWire(tr)
	case wlPaced:
		return b.runFleetPaced(tr)
	case wlUnpaced:
		return b.runFleetUnpaced(tr)
	}
	return nil, fmt.Errorf("unknown workload %q", b.workload)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report is the line before it: where and how the run was measured.
type report struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Traced       bool               `json:"traced"`
	Host         hostInfo           `json:"host"`
	Spread       map[string]float64 `json:"spread"`
	Samples      map[string]int64   `json:"samples"`
	Checks       []string           `json:"checks"`
	BetweenRuns  json.RawMessage    `json:"between_runs,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	UntracedE2E  map[string]float64 `json:"untraced_end_to_end,omitempty"`
	StepdownFrac float64            `json:"stepdown_frac"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+wlWire+", "+wlPaced+" or "+wlUnpaced)
	seed := fs.Uint64("seed", 1, "workload seed: picks the recorded runs, stream inputs and fault schedule")
	seconds := fs.Int("seconds", runSeconds, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 also runs a traced pass and prints the per-layer metrics")
	spec := fs.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	b := &bench{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		setupReps: setupReps,
		horizon:   unpacedHorizon,
	}
	traceOut := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	return b.print(*trace == 1, traceOut, stdout, stderr)
}

// print runs the workload and writes the report line and, last, the
// result line.
func (b *bench) print(traced bool, traceOut string, stdout, stderr io.Writer) int {
	res, rep, err := b.execute(traced, traceOut)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// execute sets up, generates the inputs, runs the workload (twice when
// traced: untraced first, then traced) and assembles the output.
func (b *bench) execute(traced bool, traceOut string) (*result, *report, error) {
	b.clk = newClock()
	b.tr = newTracer(traced)
	scratch, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	b.scratch = scratch

	tr, setupM, err := b.setup()
	if err != nil {
		return nil, nil, err
	}
	b.chain, b.replicate = tr.chain, tr.replicate
	b.in, err = recordInputs(b.chain.Events(), b.seed, b.workload == wlUnpaced)
	if err != nil {
		return nil, nil, err
	}

	p, err := b.runPhase(nil)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{
		Workload: b.workload,
		Seed:     b.seed,
		Seconds:  b.window.Seconds(),
		Traced:   traced,
		Host:     currentHost(),
		Spread:   map[string]float64{"verdicts_per_s_within_run": p.spread, "setup_s_within_run": setupM["setup_spread"]},
		Samples: map[string]int64{
			"attempted": p.attempted, "latency": int64(len(p.latMs)) + p.latSamples, "unchecked": p.unchecked,
			"closed_loop_passes": int64(p.passes), "setup_reps": int64(b.setupReps),
			"heap_collections": int64(p.heapCycles),
		},
		BetweenRuns: betweenRuns(b.workload),
	}
	if b.rs != nil {
		rep.StepdownFrac = b.rs.stepdownFrac()
	}
	e2e := p.endToEnd(setupM["setup_s"])
	res := &result{
		Correct:   len(p.checks) == 0 && p.failed == 0,
		Attempted: max(p.attempted, 1),
		Failed:    p.failed,
		Metrics:   make(map[string]metricOut),
	}
	rep.Checks = p.checks
	if !traced {
		rep.EndToEnd = e2e
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricOut{e2e[m.Name], m.Unit}
		}
		return res, rep, nil
	}

	tp, err := b.runPhase(b.tr)
	if err != nil {
		return nil, nil, err
	}
	if err := b.scoreBatch(tp); err != nil {
		return nil, nil, err
	}
	layer := tp.layers(setupM)
	if p.vps > 0 {
		layer["trace.overhead_frac"] = 1 - tp.vps/p.vps
	}
	traceE2E := tp.endToEnd(setupM["setup_s"])
	rep.EndToEnd, rep.UntracedE2E = traceE2E, e2e
	rep.Checks = append(rep.Checks, tp.checks...)
	rep.TraceFile = traceOut
	res.Correct = res.Correct && len(tp.checks) == 0 && tp.failed == 0
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricOut{layer[m.Name], m.Unit}
	}
	overhead := map[string]float64{"verdicts_per_s": layer["trace.overhead_frac"]}
	if e2e["latency_p50_ms"] > 0 {
		overhead["latency_p50_ms"] = traceE2E["latency_p50_ms"]/e2e["latency_p50_ms"] - 1
	}
	err = b.tr.write(traceOut, traceFile{
		Workload: b.workload,
		Seed:     b.seed,
		Host:     rep.Host,
		Overhead: overhead,
		Untraced: e2e,
		Traced:   traceE2E,
		PerLayer: layer,
	})
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// layers assembles the per-layer metrics of a traced phase.
func (p *phase) layers(setup map[string]float64) map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for k, v := range p.layer {
		l[k] = v
	}
	for _, k := range []string{"collect.corpus_s", "core.train_s", "core.replicate_ms"} {
		l[k] = setup[k]
	}
	l["e2e.goodput_vps"] = p.goodput
	l["core.observe_ns"] = p.observeNs
	l["fleet.harvest_slip_ms_p50"] = percentile(p.slipMs, 0.5)
	l["fleet.harvest_slip_ms_p99"] = percentile(p.slipMs, 0.99)
	if len(p.r2vUs) > 0 {
		l["fleet.read_to_verdict_us_p50"] = percentile(p.r2vUs, 0.5)
		l["fleet.read_to_verdict_us_p99"] = percentile(p.r2vUs, 0.99)
	}
	return l
}

// betweenRuns returns the committed run-to-run spread for the workload
// (perfbench/spread.json, written by perfbench/spread.py), if present.
func betweenRuns(workload string) json.RawMessage {
	b, err := os.ReadFile(filepath.Join("perfbench", "spread.json"))
	if err != nil {
		return nil
	}
	var all map[string]json.RawMessage
	if json.Unmarshal(b, &all) != nil {
		return nil
	}
	return all[workload]
}
