package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shortBench shrinks a run to seconds: one cold start, a one-second
// window and short closed-loop passes.
func shortBench(workload string) *bench {
	return &bench{
		workload: workload, seed: 7, window: time.Second,
		setupReps: 1, horizon: 64,
	}
}

// lastLine runs the workload and decodes the result line.
func lastLine(t *testing.T, workload string, traced bool, traceOut string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := shortBench(workload).print(traced, traceOut, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", workload, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metricOut, names, units []string) {
	t.Helper()
	if len(got) != len(names) {
		t.Errorf("got %d metrics, want %d", len(got), len(names))
	}
	for i, n := range names {
		m, ok := got[n]
		if !ok {
			t.Errorf("metric %s missing", n)
			continue
		}
		if m.Unit != units[i] {
			t.Errorf("metric %s unit %q, want %q", n, m.Unit, units[i])
		}
	}
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	dir := t.TempDir()
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range endToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.Name), append(e2eUnits, m.Unit)
	}
	for _, m := range perLayer {
		layerNames, layerUnits = append(layerNames, m.Name), append(layerUnits, m.Unit)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			traceOut := filepath.Join(dir, w.Name+".json")
			res := lastLine(t, w.Name, false, traceOut)
			checkMetrics(t, res.Metrics, e2eNames, e2eUnits)
			for _, n := range []string{"setup_s", "verdicts_per_s", "delivered_frac", "latency_p50_ms", "heap_mb"} {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}

			res = lastLine(t, w.Name, true, traceOut)
			checkMetrics(t, res.Metrics, layerNames, layerUnits)
			for _, n := range []string{"fleet.rotation_ms", "core.observe_ns", "compiled.score_ns_per_vector", "collect.corpus_s"} {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}
			var tf traceFile
			b, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || len(tf.SelfTime) == 0 || len(tf.Counters) == 0 {
				t.Errorf("trace file: %d spans, %d layers, %d counters", len(tf.Spans), len(tf.SelfTime), len(tf.Counters))
			}
			if _, ok := tf.Overhead["verdicts_per_s"]; !ok {
				t.Error("trace file has no tracing overhead")
			}
		})
	}
}

// A corrupted reference verdict must fail the correctness gate on
// every workload's path: the fleet's inline check and the wire's
// post-run replay.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			b := shortBench(w.Name)
			b.corrupt = true
			res, rep, err := b.execute(false, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || len(rep.Checks) == 0 {
				t.Fatalf("corrupted reference passed: correct=%v failed=%d checks=%v", res.Correct, res.Failed, rep.Checks)
			}
		})
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: (cd perfbench && go run . --write-spec ../BENCHMARK.json)\n%s", want)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "e2e.sample", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fleet.wait", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "fleet.score", Start: 30, End: 70},
	}
	st := selfTimes(spans)
	if got := st["e2e"].SelfMs; math.Abs(got-30e-6) > 1e-12 {
		t.Errorf("e2e self = %v ms, want 30ns", got)
	}
	if got := st["fleet"].TotalMs; math.Abs(got-80e-6) > 1e-12 {
		t.Errorf("fleet total = %v ms, want 80ns", got)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", wlWire, "--seconds", "0"},
		{"--workload", wlWire, "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
