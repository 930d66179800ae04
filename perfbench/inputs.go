package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/micro"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// Input traces. Before timing starts the generator records traceLen
// intervals of the simulated machine running each app of hmd-serve's
// unseen monitoring schedule (its default six apps, benign and malware
// interleaved), on the run indices the workload seed picks. Streams
// replay those recordings cyclically from a seeded offset, so every
// stream is one of a small number of input variants and the sequential
// reference replay covers each variant once.
const (
	scheduleApps = 6
	traceLen     = 256
	offsetStride = 16
	offsets      = traceLen / offsetStride
	// faultRate is the per-opportunity rate of the stuck/zero counter
	// faults recorded into the faulty traces.
	faultRate = 0.02
)

// inputs are the recorded traces: clean ones first, then faulty ones.
type inputs struct {
	width  int
	traces [][][]uint64
	clean  int
}

// splitmix is the seed mixer behind every input choice.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unseenSchedule is hmd-serve's monitoring schedule: apps of a suite
// disjoint from training, benign and malware alternating.
func unseenSchedule(n int) []*workload.App {
	unseen := workload.Suite(workload.SuiteConfig{Seed: 0xBEEF, AppsPerFamily: 1})
	benign, malware := workload.Split(unseen)
	var out []*workload.App
	for i := 0; i < n; i++ {
		if i%2 == 0 && i/2 < len(benign) {
			out = append(out, &benign[i/2])
		} else if i/2 < len(malware) {
			out = append(out, &malware[i/2])
		}
	}
	return out
}

// recordInputs runs the simulator for every schedule app, clean and
// (withFaults) with seeded stuck/zero counter faults, on the chain's
// events.
func recordInputs(events []micro.EventID, seed uint64, withFaults bool) (*inputs, error) {
	apps := unseenSchedule(scheduleApps)
	type job struct {
		app   *workload.App
		run   int
		plan  *faults.Plan
		scope string
	}
	var jobs []job
	for i, app := range apps {
		run := int(splitmix(seed^uint64(i)) % 4096)
		jobs = append(jobs, job{app, run, nil, app.Name})
	}
	clean := len(jobs)
	if withFaults {
		plan := &faults.Plan{Seed: seed, Rate: faultRate, Kinds: []faults.Kind{faults.StuckCounter, faults.ZeroCounter}}
		for i, app := range apps {
			run := int(splitmix(seed^uint64(i)) % 4096)
			jobs = append(jobs, job{app, run, plan, app.Name + "/faulty"})
		}
	}
	in := &inputs{width: len(events), traces: make([][][]uint64, len(jobs)), clean: clean}
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer wg.Done()
			defer func() { <-sem }()
			in.traces[j], errs[j] = recordTrace(events, jobs[j].app, jobs[j].run, jobs[j].plan, jobs[j].scope)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func recordTrace(events []micro.EventID, app *workload.App, run int, plan *faults.Plan, scope string) ([][]uint64, error) {
	src, err := supervise.NewMachineSource(supervise.MachineSourceConfig{
		Machine: micro.FastConfig(),
		Run:     app.NewRun(run),
		Events:  events,
		Total:   traceLen,
		Plan:    plan,
		Scope:   scope,
	})
	if err != nil {
		return nil, fmt.Errorf("recording %s: %w", scope, err)
	}
	flat := make([]uint64, traceLen*len(events))
	trace := make([][]uint64, traceLen)
	for k := range trace {
		v, err := src.ReadInto(context.Background(), k, flat[k*len(events):(k+1)*len(events)])
		if err != nil {
			return nil, fmt.Errorf("recording %s interval %d: %w", scope, k, err)
		}
		trace[k] = v
	}
	return trace, nil
}

// variant is one replayable input: a trace and a starting offset.
type variant struct {
	trace int
	off   int
}

func (in *inputs) id(v variant) int { return v.trace*offsets + v.off/offsetStride }

func (in *inputs) variants() int { return len(in.traces) * offsets }

// assign picks stream i's input from the seed. With faultyEvery > 0,
// every faultyEvery-th stream replays a faulty trace.
func (in *inputs) assign(seed uint64, i, faultyEvery int) variant {
	r := splitmix(seed*0x100000001B3 ^ uint64(i))
	v := variant{trace: int(r % uint64(in.clean)), off: int((r>>32)%offsets) * offsetStride}
	if faultyEvery > 0 && i%faultyEvery == faultyEvery-1 && len(in.traces) > in.clean {
		v.trace = in.clean + int(r%uint64(len(in.traces)-in.clean))
	}
	return v
}

// sample returns variant v's reading at interval k.
func (in *inputs) sample(v variant, k int) []uint64 {
	t := in.traces[v.trace]
	return t[(v.off+k)%len(t)]
}

// reference is the sequential FallbackChain.Observe replay of one
// input variant from a cold chain: the verdicts every stream replaying
// that variant must deliver, interval for interval.
type reference struct {
	score   []float64
	malware []bool
	// stepped counts intervals the chain scored below its primary
	// stage (a narrower detector or the prior).
	stepped int
}

// matches reports whether a delivered verdict equals the reference's
// verdict k bit for bit.
func (r *reference) matches(k int, score float64, malware bool) bool {
	return math.Float64bits(score) == math.Float64bits(r.score[k]) && malware == r.malware[k]
}

// referenceSet holds the replays of the variants a workload uses.
type referenceSet struct {
	refs     []*reference // by variant id; nil when unused
	observes int64
	elapsed  time.Duration
}

// observeNs is the single-threaded cost of one Observe call: the
// sequential baseline the fleet's batched path is measured against.
func (rs *referenceSet) observeNs() float64 {
	if rs.observes == 0 {
		return 0
	}
	return float64(rs.elapsed.Nanoseconds()) / float64(rs.observes)
}

// references replays every variant in use for n intervals, each
// through a fresh chain replica.
func (in *inputs) references(replicate func() (*core.FallbackChain, error), used []variant, n int) (*referenceSet, error) {
	rs := &referenceSet{refs: make([]*reference, in.variants())}
	for _, v := range used {
		id := in.id(v)
		if rs.refs[id] != nil {
			continue
		}
		ch, err := replicate()
		if err != nil {
			return nil, fmt.Errorf("reference chain: %w", err)
		}
		ref := &reference{score: make([]float64, n), malware: make([]bool, n)}
		start := time.Now()
		for k := 0; k < n; k++ {
			vd, err := ch.Observe(in.sample(v, k))
			if err != nil {
				return nil, fmt.Errorf("reference replay: %w", err)
			}
			ref.score[k], ref.malware[k] = vd.Score, vd.Malware
			if ch.ActiveStage() != 0 {
				ref.stepped++
			}
		}
		rs.elapsed += time.Since(start)
		rs.observes += int64(n)
		rs.refs[id] = ref
	}
	return rs, nil
}

// stepdownFrac is the share of reference intervals the chain scored
// below its primary stage.
func (rs *referenceSet) stepdownFrac() float64 {
	var stepped int64
	for _, r := range rs.refs {
		if r != nil {
			stepped += int64(r.stepped)
		}
	}
	if rs.observes == 0 {
		return 0
	}
	return float64(stepped) / float64(rs.observes)
}

// scoreBatch times Batcher.ScoreBatch on the primary stage's compiled
// kernel at the batch size the traced pass measured
// (compiled.score_ns_per_vector).
func (b *bench) scoreBatch(p *phase) error {
	n := int(math.Round(p.layer["fleet.verdicts_per_batch"]))
	n = min(max(n, 1), 4096)
	ch, err := b.replicate()
	if err != nil {
		return fmt.Errorf("score-batch chain: %w", err)
	}
	rows := make([][]float64, 0, n)
	for k := 0; len(rows) < n; k++ {
		stage, x, err := ch.BeginObserve(b.in.sample(b.in.assign(b.seed, k, 0), k))
		if err != nil {
			return fmt.Errorf("score-batch rows: %w", err)
		}
		if stage == 0 {
			rows = append(rows, append([]float64(nil), x...))
		}
		ch.CommitScore(ch.Prior())
	}
	bat := ch.Detectors()[0].NewTierBatcher(core.TierCompiled)
	out := make([]float64, n)
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		bat.ScoreBatch(rows, out)
		reps++
	}
	p.layer["compiled.score_ns_per_vector"] = float64(time.Since(start).Nanoseconds()) / float64(reps*n)
	return nil
}
