package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/micro"
	"repro/internal/source"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// stubModel is a fixed-score classifier: enough to drive chains and the
// engine without training anything. Stub chains cannot round-trip
// through gob, which is exactly what Config.NewChain exists for.
type stubModel struct{ score float64 }

func (m stubModel) Distribution(x []float64) []float64 {
	return []float64{1 - m.score, m.score}
}

func (m stubModel) DistributionInto(x []float64, out []float64) {
	out[0], out[1] = 1-m.score, m.score
}

// stubChainFactory builds fresh 4HPC → 2HPC → prior stub chains.
func stubChainFactory() func() (*core.FallbackChain, error) {
	return func() (*core.FallbackChain, error) {
		evs := micro.AllEvents()
		d4 := &core.Detector{BaseName: "Stub", Events: evs[:4], Model: stubModel{score: 0.8}}
		d2 := &core.Detector{BaseName: "Stub", Events: evs[:2], Model: stubModel{score: 0.6}}
		return core.NewFallbackChain([]*core.Detector{d4, d2},
			core.ChainConfig{Window: 3, PriorScore: 0.3})
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.NewChain == nil {
		cfg.NewChain = stubChainFactory()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// collector gathers one stream's verdicts; only the owning shard's
// goroutine appends during Run, and reads happen after Run returns.
type collector struct{ verdicts []core.Verdict }

func (c *collector) add(v core.Verdict) { c.verdicts = append(c.verdicts, v) }

func requireGapFree(t *testing.T, id string, verdicts []core.Verdict, want, first int) {
	t.Helper()
	if len(verdicts) != want {
		t.Fatalf("stream %s: got %d verdicts, want %d", id, len(verdicts), want)
	}
	for i, v := range verdicts {
		if v.Interval != first+i {
			t.Fatalf("stream %s: verdict %d has interval %d, want %d", id, i, v.Interval, first+i)
		}
	}
}

// TestFleetMatchesPipelines is the golden test: every stream of a
// Block-policy fleet — shared shard model replicas, cross-stream
// batched inference, a single timer wheel — must emit a verdict stream
// bit-identical to a dedicated supervised pipeline fed by an
// identically-configured (fault-injected) source.
func TestFleetMatchesPipelines(t *testing.T) {
	const n = 60
	const streams = 9
	plan := &faults.Plan{Seed: 0xC0FFEE, Rate: 0.3}
	brCfg := supervise.BreakerConfig{FailAfter: 2, Cooldown: 3}
	apps := workload.Suite(workload.SuiteConfig{Seed: 0xBEEF, AppsPerFamily: 2})

	factory := stubChainFactory()
	tmpl, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	srcCfg := func(i int) supervise.MachineSourceConfig {
		app := apps[i%len(apps)]
		return supervise.MachineSourceConfig{
			Machine:     micro.FastConfig(),
			Run:         app.NewRun(0),
			Events:      tmpl.Events(),
			Total:       n,
			CycleBudget: 4000,
			Plan:        plan,
			Scope:       fmt.Sprintf("%s/stream%d", app.Name, i),
		}
	}

	e := newTestEngine(t, Config{
		NewChain:   factory,
		Shards:     3,
		WheelSlots: 4,
		Policy:     supervise.Block,
		Breaker:    brCfg,
	})
	got := make([]*collector, streams)
	for i := 0; i < streams; i++ {
		src, err := supervise.NewMachineSource(srcCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		got[i] = &collector{}
		if err := e.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    src,
			Intervals: n,
			OnVerdict: got[i].add,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < streams; i++ {
		chain, err := factory()
		if err != nil {
			t.Fatal(err)
		}
		p, err := supervise.New(supervise.Config{
			Chain:          chain,
			Policy:         supervise.Block,
			Breaker:        brCfg,
			RestartBackoff: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		src, err := supervise.NewMachineSource(srcCfg(i))
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run(context.Background(), src, n)
		if err != nil {
			t.Fatal(err)
		}
		requireGapFree(t, fmt.Sprintf("s%d", i), got[i].verdicts, n, 0)
		for k := range want {
			if got[i].verdicts[k] != want[k] {
				t.Fatalf("stream s%d verdict %d: fleet %+v != pipeline %+v",
					i, k, got[i].verdicts[k], want[k])
			}
		}
	}

	snap := e.Stats(true)
	if snap.Streams != streams || snap.Live != 0 {
		t.Fatalf("fleet not drained: %+v", snap)
	}
	if snap.Verdicts != int64(streams*n) {
		t.Fatalf("fleet emitted %d verdicts, want %d", snap.Verdicts, streams*n)
	}
}

// TestFleetBoundedStreamsDrain: a Block fleet over clean synthetic
// sources finishes every bounded stream with a gap-free, loss-free
// verdict stream and Run returns on its own.
func TestFleetBoundedStreamsDrain(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 2, WheelSlots: 4, Policy: supervise.Block})
	horizons := []int{31, 57, 12, 40, 40, 7}
	cols := make([]*collector, len(horizons))
	for i, h := range horizons {
		cols[i] = &collector{}
		if err := e.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    source.NewSynthetic(uint64(i+1), 4),
			Intervals: h,
			OnVerdict: cols[i].add,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, h := range horizons {
		requireGapFree(t, fmt.Sprintf("s%d", i), cols[i].verdicts, h, 0)
		total += h
	}
	snap := e.Stats(true)
	if snap.Verdicts != int64(total) || snap.LostVerdicts != 0 {
		t.Fatalf("clean fleet degraded: %+v", snap)
	}
	// Drained shards are idle, not behind: lag must not keep growing
	// against the wheel once a shard has no live streams.
	for i, ss := range snap.Shards {
		if ss.LagRotations != 0 {
			t.Fatalf("idle shard %d reports lag of %d rotations", i, ss.LagRotations)
		}
	}
	for _, ss := range snap.PerStream {
		if !ss.Finished || ss.Breaker.Trips != 0 {
			t.Fatalf("stream %s not cleanly finished: %+v", ss.ID, ss)
		}
	}
}

// TestFleetSheddingRepairsTails: under DropOldest with a deliberately
// slow source and a one-batch queue, the unpaced wheel floods the
// shard, batches are shed — and every stream must still finish with
// exactly its horizon of gap-free verdicts, the holes repaired by the
// hold-last path and the tail by drain markers.
func TestFleetSheddingRepairsTails(t *testing.T) {
	e := newTestEngine(t, Config{
		Shards:         1,
		WheelSlots:     4,
		Policy:         supervise.DropOldest,
		PendingBatches: 1,
	})
	const streams, horizon = 8, 20
	cols := make([]*collector, streams)
	for i := 0; i < streams; i++ {
		inner := source.NewSynthetic(uint64(i+1), 4)
		cols[i] = &collector{}
		if err := e.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    slowSource{inner: inner, delay: 200 * time.Microsecond},
			Intervals: horizon,
			OnVerdict: cols[i].add,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		requireGapFree(t, fmt.Sprintf("s%d", i), cols[i].verdicts, horizon, 0)
	}
	snap := e.Stats(false)
	if snap.Verdicts != int64(streams*horizon) {
		t.Fatalf("verdicts %d, want %d", snap.Verdicts, streams*horizon)
	}
	if snap.ShedIntervals == 0 {
		t.Fatal("expected the flooded shard to shed work")
	}
	if snap.LostVerdicts == 0 {
		t.Fatal("shed intervals must surface as lost verdicts")
	}
}

// slowSource delays every read, simulating a source slower than the
// harvest rate.
type slowSource struct {
	inner supervise.BufferedSource
	delay time.Duration
}

func (s slowSource) Read(ctx context.Context, interval int) ([]uint64, error) {
	time.Sleep(s.delay)
	return s.inner.Read(ctx, interval)
}

// TestFleetRuntimeAddRemove exercises concurrent stream churn under
// fault injection while the paced engine runs — the -race workout — and
// checks that removal actually retires streams so the fleet drains.
func TestFleetRuntimeAddRemove(t *testing.T) {
	plan := &faults.Plan{Seed: 0xFEED, Rate: 0.4}
	apps := workload.Suite(workload.SuiteConfig{Seed: 0xBEEF, AppsPerFamily: 1})
	app := apps[0]
	factory := stubChainFactory()
	tmpl, err := factory()
	if err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t, Config{
		NewChain:   factory,
		Shards:     2,
		WheelSlots: 4,
		Interval:   2 * time.Millisecond,
		Policy:     supervise.DropOldest,
		Breaker:    supervise.BreakerConfig{FailAfter: 2, Cooldown: 3},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- e.Run(ctx) }()

	newSource := func(i int) supervise.Source {
		src, serr := supervise.NewMachineSource(supervise.MachineSourceConfig{
			Machine:     micro.FastConfig(),
			Run:         app.NewRun(0),
			Events:      tmpl.Events(),
			Total:       1 << 20,
			CycleBudget: 2000,
			Plan:        plan,
			Scope:       fmt.Sprintf("churn%d", i),
		})
		if serr != nil {
			t.Error(serr)
			return source.NewSynthetic(uint64(i+1), 4)
		}
		return src
	}

	// Concurrent adders: half bounded, half unbounded.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := g*6 + k
				horizon := 30
				if i%2 == 1 {
					horizon = 0 // unbounded; removed below
				}
				if err := e.Add(StreamConfig{
					ID:        fmt.Sprintf("s%d", i),
					Source:    newSource(i),
					Intervals: horizon,
				}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	// Concurrent stats reader.
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for i := 0; i < 50; i++ {
			e.Stats(true)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-statsDone

	// Retire the unbounded streams so the fleet can drain.
	for i := 0; i < 24; i++ {
		if i%2 == 1 {
			if err := e.Remove(fmt.Sprintf("s%d", i)); err != nil {
				t.Error(err)
			}
		}
	}
	if err := <-runErr; err != nil {
		t.Fatalf("fleet did not drain after removals: %v", err)
	}
	snap := e.Stats(true)
	if snap.Streams != 24 || snap.Live != 0 {
		t.Fatalf("churn left the fleet undrained: %+v", snap)
	}
	for _, ss := range snap.PerStream {
		if !ss.Removed && ss.Verdicts != 30 {
			t.Fatalf("bounded stream %s emitted %d verdicts, want 30", ss.ID, ss.Verdicts)
		}
	}
}

// TestFleetCheckpointRestore: a fleet checkpoint written on the
// rotation cadence (plus the final save at drain) restores per-stream
// chain state by ID, so a restarted fleet's verdict intervals continue
// where the previous process stopped.
func TestFleetCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	store, err := core.NewCheckpointStore(dir, "fleet", StateVersion)
	if err != nil {
		t.Fatal(err)
	}
	const streams, horizon = 5, 40
	mk := func() *Engine {
		return newTestEngine(t, Config{
			Shards:          2,
			WheelSlots:      4,
			Policy:          supervise.Block,
			Checkpoint:      store,
			CheckpointEvery: 8,
		})
	}

	e := mk()
	for i := 0; i < streams; i++ {
		if err := e.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    source.NewSynthetic(uint64(i+1), 4),
			Intervals: horizon,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := e.Stats(false); snap.CheckpointsWritten == 0 {
		t.Fatalf("no checkpoints written: %+v", snap)
	}

	// "Restart": fresh engine, recover, re-add the same IDs.
	e2 := mk()
	gen, quarantined, err := e2.RestoreState()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 || len(quarantined) != 0 {
		t.Fatalf("unexpected recovery: gen %d quarantined %v", gen, quarantined)
	}
	cols := make([]*collector, streams)
	for i := 0; i < streams; i++ {
		cols[i] = &collector{}
		if err := e2.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    source.NewSynthetic(uint64(100+i), 4),
			Intervals: 10,
			OnVerdict: cols[i].add,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		// The restored chain resumes interval numbering at horizon.
		requireGapFree(t, fmt.Sprintf("s%d", i), cols[i].verdicts, 10, horizon)
	}
}

// TestFleetZeroAllocSteadyState gates the whole per-interval path —
// wheel harvest, batch dispatch, source read, BeginObserve, batched
// scoring, CommitScore, accounting — at zero heap allocations per
// interval per stream, stepping the engine synchronously.
func TestFleetZeroAllocSteadyState(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 2, WheelSlots: 4, Policy: supervise.Block})
	for i := 0; i < 16; i++ {
		if err := e.Add(StreamConfig{
			ID:     fmt.Sprintf("s%d", i),
			Source: source.NewSynthetic(uint64(i+1), 4),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	step := func() {
		e.tickOnce(ctx, time.Now())
		for _, sh := range e.shards {
			for sh.step(ctx) {
			}
		}
	}
	// Warm every free list and scratch buffer through several full
	// rotations before measuring.
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Fatalf("steady-state tick allocates %.2f times (4 streams/tick), want 0", allocs)
	}
}

// countingModel is a fixed-score classifier that counts every
// evaluation, shared across all chains built by one factory.
type countingModel struct {
	n     *atomic.Int64
	score float64
}

func (m countingModel) Distribution(x []float64) []float64 {
	m.n.Add(1)
	return []float64{1 - m.score, m.score}
}

func (m countingModel) DistributionInto(x []float64, out []float64) {
	m.n.Add(1)
	out[0], out[1] = 1-m.score, m.score
}

// TestFleetAddDoesNotEvaluateModels: Add assembles a stream's chain as
// a sibling of the shard's template without evaluating the shard's
// shared models. Re-probing them (as NewFallbackChain's class-count
// probe does) would race with the owning shard's concurrent scoring:
// ensemble models write per-model scratch on every evaluation.
func TestFleetAddDoesNotEvaluateModels(t *testing.T) {
	var evals atomic.Int64
	factory := func() (*core.FallbackChain, error) {
		evs := micro.AllEvents()
		d4 := &core.Detector{BaseName: "Probe", Events: evs[:4], Model: countingModel{n: &evals, score: 0.8}}
		d2 := &core.Detector{BaseName: "Probe", Events: evs[:2], Model: countingModel{n: &evals, score: 0.6}}
		return core.NewFallbackChain([]*core.Detector{d4, d2},
			core.ChainConfig{Window: 3, PriorScore: 0.3})
	}
	e := newTestEngine(t, Config{NewChain: factory, Shards: 2, WheelSlots: 2})
	before := evals.Load() // engine construction probes; Add must not
	for i := 0; i < 8; i++ {
		if err := e.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    source.NewSynthetic(uint64(i+1), 4),
			Intervals: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := evals.Load() - before; got != 0 {
		t.Fatalf("Add evaluated shard models %d times; chain assembly must not touch live models", got)
	}
}

// TestFleetNoIDReuseAfterFinish: a finished stream's ID stays taken.
// Per-stream stats and checkpoint state maps are keyed by ID, so
// accepting a reused ID would silently alias two streams.
func TestFleetNoIDReuseAfterFinish(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1, WheelSlots: 2})
	if err := e.Add(StreamConfig{ID: "a", Source: source.NewSynthetic(1, 4), Intervals: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(StreamConfig{ID: "a", Source: source.NewSynthetic(2, 4), Intervals: 3}); err == nil {
		t.Fatal("finished stream's ID accepted again")
	}
	if err := e.Add(StreamConfig{ID: "b", Source: source.NewSynthetic(3, 4), Intervals: 3}); err != nil {
		t.Fatalf("fresh ID rejected: %v", err)
	}
}

// TestQueuePutAfterClose: a stage racing shutdown must fail with an
// error instead of silently reserving a slot — a silently dropped
// checkpoint marker would strand its collector forever.
func TestQueuePutAfterClose(t *testing.T) {
	q := newSPSCRing(2, supervise.Block)
	q.close()
	if _, _, err := q.stage(context.Background()); !errors.Is(err, errQueueClosed) {
		t.Fatalf("stage on closed ring returned %v, want errQueueClosed", err)
	}
}

func TestFleetAddValidation(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1, WheelSlots: 2})
	src := source.NewSynthetic(1, 4)
	if err := e.Add(StreamConfig{Source: src}); err == nil {
		t.Fatal("missing ID accepted")
	}
	if err := e.Add(StreamConfig{ID: "a"}); err == nil {
		t.Fatal("missing source accepted")
	}
	if err := e.Add(StreamConfig{ID: "a", Source: src, Intervals: -1}); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if err := e.Add(StreamConfig{ID: "a", Source: src, Intervals: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(StreamConfig{ID: "a", Source: src, Intervals: 1}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := e.Remove("nope"); err == nil {
		t.Fatal("removing unknown stream succeeded")
	}
}

func TestSyntheticSourceDeterministic(t *testing.T) {
	ctx := context.Background()
	a := source.NewSynthetic(7, 4)
	b := source.NewSynthetic(7, 4)
	buf := make([]uint64, 4)
	for i := 0; i < 100; i++ {
		va, err := a.ReadInto(ctx, i, buf)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]uint64(nil), va...)
		vb, err := b.Read(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != vb[j] {
				t.Fatalf("interval %d slot %d: %d != %d", i, j, got[j], vb[j])
			}
			if got[j] == 0 {
				t.Fatalf("interval %d slot %d: synthetic source emitted zero", i, j)
			}
		}
	}
}
