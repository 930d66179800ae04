package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

const (
	sampleInterval  = 10 * time.Millisecond
	latencyLimit    = 20 * time.Millisecond
	checkpointEvery = 16 // hmd-serve's -checkpoint-every default
	// pacedStreams is the fleet-10ms-8k density.
	pacedStreams = 8192
	// unpacedStreams × unpacedHorizon is one closed-loop pass.
	unpacedStreams = 1024
	unpacedHorizon = 2048
	// faultyEvery: one unpaced stream in eight replays a faulty trace.
	faultyEvery = 8
	// Latency and slip samples are kept for every sampleStride-th
	// stream; the stride is coprime with the 32 wheel slots so the
	// sample spans every slot. Spans are kept for every spanStride-th.
	sampleStride = 31
	spanStride   = 257
	// statsPoll is how often a run samples the engine's Stats.
	statsPoll = 50 * time.Millisecond
)

// streamRec is the benchmark's view of one fleet stream: its input,
// its reference, and what it delivered. The owning shard goroutine
// writes it (reads and verdicts of one stream alternate on that
// goroutine); the run reads it after Run has returned.
type streamRec struct {
	id      int64
	in      *inputs
	v       variant
	ref     *reference
	sampled bool
	spanned bool

	reads     int // ReadInto calls
	next      int // next verdict interval expected
	bad       int // verdicts that differ from the reference
	unchecked int // verdicts past the reference's length
	delivered int // correct verdicts of window intervals by the deadline
	inWindow  int // verdicts of window intervals by the deadline
	ontime    int // of those, within the latency limit

	readAt, readEnd int64
	lastAt          int64     // closed loop: when the previous verdict landed
	lat             []float32 // ms, sampled streams
	slip            []float32 // ms, sampled paced streams
	r2v             []float32 // µs, sampled streams
}

// fleetRun is one measured engine run's shared timing frame.
type fleetRun struct {
	b        *bench
	tr       *tracer
	paced    bool
	t0       int64 // interval 0's due time (paced) on b.clk
	nWindow  int   // intervals per stream due inside the window
	deadline int64 // verdicts must arrive by this time to count
}

func (fr *fleetRun) due(k int) int64 { return fr.t0 + int64(k)*int64(sampleInterval) }

// pullSource is the benchmark's BufferedSource: it replays a stream's
// recorded input and timestamps the engine's pulls.
type pullSource struct {
	r  *streamRec
	fr *fleetRun
}

func (s *pullSource) Read(ctx context.Context, k int) ([]uint64, error) {
	return s.ReadInto(ctx, k, nil)
}

func (s *pullSource) ReadInto(ctx context.Context, k int, buf []uint64) ([]uint64, error) {
	r := s.r
	r.reads++
	if r.sampled {
		r.readAt = s.fr.b.clk.now()
		if s.fr.paced && k < s.fr.nWindow {
			r.slip = append(r.slip, float32(float64(r.readAt-s.fr.due(k))/1e6))
		}
	}
	v := r.in.sample(r.v, k)
	if cap(buf) < len(v) {
		buf = make([]uint64, len(v))
	}
	buf = buf[:len(v)]
	copy(buf, v)
	if r.spanned {
		r.readEnd = s.fr.b.clk.now()
	}
	return buf, nil
}

// onVerdict checks one delivered verdict against the reference and
// books its timing.
func (fr *fleetRun) onVerdict(r *streamRec, vd core.Verdict) {
	k := r.next
	r.next++
	ok := vd.Interval == k
	if ok && k < len(r.ref.score) {
		ok = r.ref.matches(k, vd.Score, vd.Malware)
	} else if ok {
		r.unchecked++
	}
	if !ok {
		r.bad++
	}
	if !fr.paced {
		if ok {
			r.delivered++
		}
		r.inWindow++
		if r.sampled {
			// A closed-loop stream's next interval is due when its
			// previous verdict lands (the first when the pass starts).
			at, prev := fr.b.clk.now(), r.lastAt
			if k == 0 {
				prev = fr.t0
			}
			r.lastAt = at
			r.r2v = append(r.r2v, float32(float64(at-r.readAt)/1e3))
			r.lat = append(r.lat, float32(float64(at-prev)/1e6))
			if at-prev <= int64(latencyLimit) {
				r.ontime++
			}
			fr.spans(r, k, prev, at)
		}
		return
	}
	if k >= fr.nWindow {
		return
	}
	at := fr.b.clk.now()
	if at > fr.deadline {
		return
	}
	r.inWindow++
	if ok {
		r.delivered++
	}
	late := at - fr.due(k)
	if late <= int64(latencyLimit) {
		r.ontime++
	}
	if r.sampled {
		r.lat = append(r.lat, float32(float64(late)/1e6))
		r.r2v = append(r.r2v, float32(float64(at-r.readAt)/1e3))
		fr.spans(r, k, fr.due(k), at)
	}
}

// spans records one sample's path for span-sampled streams: the wait
// for the wheel to pull it, the source read, and the shard's
// score-and-demux up to the verdict.
func (fr *fleetRun) spans(r *streamRec, k int, start, at int64) {
	if !r.spanned || !fr.tr.enabled() {
		return
	}
	trace := r.id<<32 | int64(k)
	root := fr.tr.newID()
	fr.tr.record(0, "fleet.harvest_wait", trace, root, start, r.readAt)
	fr.tr.record(0, "source.ReadInto", trace, root, r.readAt, r.readEnd)
	fr.tr.record(0, "fleet.score_demux", trace, root, r.readEnd, at)
	fr.tr.record(root, "e2e.sample", trace, 0, start, at)
}

// addStreams admits n streams replaying their assigned inputs.
func (fr *fleetRun) addStreams(eng *fleet.Engine, recs []streamRec, rs *referenceSet, faulty int) error {
	in := fr.b.in
	for i := range recs {
		v := in.assign(fr.b.seed, i, faulty)
		recs[i] = streamRec{
			id:      int64(i),
			in:      in,
			v:       v,
			ref:     rs.refs[in.id(v)],
			sampled: i%sampleStride == 0,
			spanned: i%spanStride == 0,
		}
		r := &recs[i]
		horizon := 0
		if !fr.paced {
			horizon = fr.b.horizon
		}
		s := fr.b.clk.now()
		err := eng.Add(fleet.StreamConfig{
			ID:        fmt.Sprintf("s%05d", i),
			Source:    &pullSource{r: r, fr: fr},
			Intervals: horizon,
			OnVerdict: func(vd core.Verdict) { fr.onVerdict(r, vd) },
		})
		if r.spanned {
			fr.tr.record(0, "fleet.Add", 0, 0, s, fr.b.clk.now())
		}
		if err != nil {
			return fmt.Errorf("adding stream %d: %w", i, err)
		}
	}
	return nil
}

// boundaryCounts sums the streams' source reads and delivered verdicts
// for the traced run's counters.
func boundaryCounts(tr *tracer, recs []streamRec) {
	var reads, verdicts int64
	for i := range recs {
		reads += int64(recs[i].reads)
		verdicts += int64(recs[i].next)
	}
	tr.count("source.reads", reads)
	tr.count("fleet.verdicts", verdicts)
}

// statsWatch samples the engine while a run is measured: the deepest
// shard ring, the largest rotation lag, the verdict count at every
// second of the window (for the within-run spread) and the live heap
// each collection in the window marked.
type statsWatch struct {
	queueMax, lagMax int64
	perSecond        []float64
	heapMarked       []float64
}

func watchStats(ctx context.Context, eng *fleet.Engine, clk *clock, from int64) *statsWatch {
	w := &statsWatch{}
	nextSec, last := from+int64(time.Second), int64(0)
	lastCycles, _ := liveHeap()
	tick := time.NewTicker(statsPoll)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return w
		case <-tick.C:
		}
		if cycles, mb := liveHeap(); cycles != lastCycles {
			w.heapMarked = append(w.heapMarked, mb)
			lastCycles = cycles
		}
		snap := eng.Stats(false)
		for _, sh := range snap.Shards {
			w.queueMax = max(w.queueMax, int64(sh.QueueDepth))
			w.lagMax = max(w.lagMax, sh.LagRotations)
		}
		if clk.now() >= nextSec {
			w.perSecond = append(w.perSecond, float64(snap.Verdicts-last))
			last = snap.Verdicts
			nextSec += int64(time.Second)
		}
	}
}

// engineDelta is what changed in the engine's own counters across a
// measured window.
type engineDelta struct {
	rotations, verdicts, batches, shed, lost int64
	checkpoints, ckptErrors                  int64
	lag                                      map[int64]int64
}

func snapDelta(before, after fleet.Snapshot) engineDelta {
	d := engineDelta{
		rotations:   after.Rotations - before.Rotations,
		verdicts:    after.Verdicts - before.Verdicts,
		shed:        after.ShedIntervals - before.ShedIntervals,
		lost:        after.LostVerdicts - before.LostVerdicts,
		checkpoints: after.CheckpointsWritten - before.CheckpointsWritten,
		ckptErrors:  after.CheckpointErrors - before.CheckpointErrors,
		lag:         make(map[int64]int64),
	}
	for i, sh := range after.Shards {
		var b fleet.ShardSnapshot
		if i < len(before.Shards) {
			b = before.Shards[i]
		}
		d.batches += sh.Batches - b.Batches
		for _, lb := range sh.LagHistogram {
			d.lag[lb.UpToMicros] += lb.Count
		}
		for _, lb := range b.LagHistogram {
			d.lag[lb.UpToMicros] -= lb.Count
		}
	}
	return d
}

func (d *engineDelta) add(o engineDelta) {
	d.rotations += o.rotations
	d.verdicts += o.verdicts
	d.batches += o.batches
	d.shed += o.shed
	d.lost += o.lost
	d.checkpoints += o.checkpoints
	d.ckptErrors += o.ckptErrors
	if d.lag == nil {
		d.lag = make(map[int64]int64)
	}
	for k, v := range o.lag {
		d.lag[k] += v
	}
}

// lagQuantile is the q-quantile of the harvest-to-verdict histogram
// delta, in µs (the bucket's upper bound, as the engine reports it).
func (d engineDelta) lagQuantile(q float64) float64 {
	keys := make([]int64, 0, len(d.lag))
	var total int64
	for k, c := range d.lag {
		keys = append(keys, k)
		total += c
	}
	if total <= 0 {
		return 0
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, k := range keys {
		cum += d.lag[k]
		if cum >= rank {
			return float64(k)
		}
	}
	return float64(keys[len(keys)-1])
}

// layers fills the engine-derived per-layer metrics.
func (d engineDelta) layers(p *phase, wallNs int64) {
	if d.rotations > 0 {
		p.layer["fleet.rotation_ms"] = float64(wallNs) / 1e6 / float64(d.rotations)
	}
	if d.batches > 0 {
		p.layer["fleet.verdicts_per_batch"] = float64(d.verdicts) / float64(d.batches)
	}
	p.layer["fleet.harvest_to_verdict_us_p99"] = d.lagQuantile(0.99)
	p.layer["fleet.shed_intervals"] = float64(d.shed)
	p.layer["fleet.lost_verdicts"] = float64(d.lost)
	p.layer["fleet.checkpoints"] = float64(d.checkpoints)
	p.layer["fleet.checkpoint_errors"] = float64(d.ckptErrors)
}

// foldCounts adds the per-stream verdict counts to the phase.
func (p *phase) foldCounts(recs []streamRec) {
	for i := range recs {
		r := &recs[i]
		if r.bad > 0 {
			p.failed += int64(r.bad)
			p.checkf("stream %d: %d verdicts differ from the sequential reference", i, r.bad)
		}
		p.unchecked += int64(r.unchecked)
		p.delivered += int64(r.delivered)
		p.inWindow += int64(r.inWindow)
		p.ontime += int64(r.ontime)
	}
}

// samples gathers one timing series of the sampled streams.
func samples(recs []streamRec, series func(*streamRec) []float32) []float64 {
	var out []float64
	for i := range recs {
		for _, x := range series(&recs[i]) {
			out = append(out, float64(x))
		}
	}
	return out
}

// runFleetPaced is fleet-10ms-8k: 8192 pull streams at 10 ms for the
// window, checkpointing every 16 rotations to a scratch directory.
func (b *bench) runFleetPaced(tr *tracer) (*phase, error) {
	p := newPhase()
	nWindow := int(b.window / sampleInterval)
	rs, err := b.refs(pacedStreams, 0, nWindow+64)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(b.scratch, "ckpt-")
	if err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	defer os.RemoveAll(dir)
	store, err := core.NewCheckpointStore(dir, "fleet", fleet.StateVersion)
	if err != nil {
		return nil, err
	}
	eng, err := fleet.New(b.engineConfig(b.chain, store))
	if err != nil {
		return nil, fmt.Errorf("fleet engine: %w", err)
	}
	fr := &fleetRun{b: b, tr: tr, paced: true, nWindow: nWindow}
	recs := make([]streamRec, pacedStreams)
	if err := fr.addStreams(eng, recs, rs, 0); err != nil {
		return nil, err
	}
	for i := range recs {
		if recs[i].sampled {
			recs[i].lat = make([]float32, 0, nWindow)
			recs[i].slip = make([]float32, 0, nWindow)
			recs[i].r2v = make([]float32, 0, nWindow)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := eng.Stats(false)
	rt0 := readRuntimeHists()
	fr.t0 = b.clk.now()
	end := fr.t0 + int64(b.window)
	fr.deadline = end + int64(latencyLimit)
	done := make(chan error, 1)
	go func() { done <- eng.Run(ctx) }()
	wctx, stopWatch := context.WithCancel(ctx)
	watchDone := make(chan *statsWatch, 1)
	go func() { watchDone <- watchStats(wctx, eng, b.clk, fr.t0) }()

	b.clk.sleepUntil(end)
	after := eng.Stats(false)
	rt1 := readRuntimeHists()
	stopWatch()
	watch := <-watchDone
	p.heapMB, p.heapCycles = heapMB(watch.heapMarked), len(watch.heapMarked)
	b.clk.sleepUntil(fr.deadline)
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("fleet run: %w", err)
	}
	if tr.enabled() {
		tr.record(0, "fleet.Run", 0, 0, fr.t0, b.clk.now())
	}

	s := b.clk.now()
	err = eng.SaveState()
	saved := b.clk.now()
	tr.record(0, "fleet.SaveState", 0, 0, s, saved)
	if err != nil {
		p.checkf("SaveState: %v", err)
	} else if fi, serr := os.Stat(store.Path(0)); serr == nil {
		p.layer["core.save_state_ms"] = float64(saved-s) / 1e6
		p.layer["core.checkpoint_bytes"] = float64(fi.Size())
	}

	p.attempted = int64(pacedStreams) * int64(nWindow)
	p.foldCounts(recs)
	p.latMs = samples(recs, func(r *streamRec) []float32 { return r.lat })
	p.slipMs = samples(recs, func(r *streamRec) []float32 { return r.slip })
	p.r2vUs = samples(recs, func(r *streamRec) []float32 { return r.r2v })
	p.vps = float64(p.inWindow) / b.window.Seconds()
	p.goodput = float64(p.ontime) / b.window.Seconds()
	d := snapDelta(before, after)
	d.layers(p, end-fr.t0)
	if d.ckptErrors > 0 {
		p.checkf("%d checkpoint writes failed", d.ckptErrors)
	}
	if d.lost > 0 {
		p.checkf("%d hold-last verdicts on clean pull streams", d.lost)
	}
	p.layer["fleet.queue_depth_max"] = float64(watch.queueMax)
	p.layer["fleet.lag_rotations_max"] = float64(watch.lagMax)
	p.spread = iqrFrac(watch.perSecond)
	p.runtimeLayers(rt0, rt1)
	p.observeNs = rs.observeNs()
	boundaryCounts(tr, recs)
	return p, nil
}

// runFleetUnpaced is fleet-unpaced-1k: closed-loop passes of 1024
// streams × a fixed horizon on the boosted chain, one stream in eight
// on a faulty trace, repeated until the window is spent. Each pass
// runs on a fresh engine, since an engine whose streams have all
// finished has drained for good.
func (b *bench) runFleetUnpaced(tr *tracer) (*phase, error) {
	p := newPhase()
	rs, err := b.refs(unpacedStreams, faultyEvery, b.horizon)
	if err != nil {
		return nil, err
	}
	var rates, p50s, p99s, r2v50s, r2v99s []float64
	var total engineDelta
	var runNs, queueMax, lagMax, sampled, lastPassNs int64
	var recs []streamRec
	// The runtime histograms cover the passes only, not the forced
	// collection before each.
	var rtPasses runtimeHists
	start := b.clk.now()
	for pass := 0; pass < 2 || b.clk.now()-start < int64(b.window); pass++ {
		eng, err := fleet.New(b.engineConfig(b.chain, nil))
		if err != nil {
			return nil, fmt.Errorf("fleet engine: %w", err)
		}
		fr := &fleetRun{b: b, tr: tr}
		recs = make([]streamRec, unpacedStreams)
		if err := fr.addStreams(eng, recs, rs, faultyEvery); err != nil {
			return nil, err
		}
		for i := range recs {
			// Per-sample spans come from the first pass only; later
			// passes repeat it.
			recs[i].spanned = recs[i].spanned && pass == 0
			if recs[i].sampled {
				recs[i].lat = make([]float32, 0, b.horizon)
				recs[i].r2v = make([]float32, 0, b.horizon)
			}
		}
		// Collect the garbage this pass's set-up made before timing it,
		// so a collection the steady state would not trigger does not
		// land inside the pass.
		runtime.GC()
		rt0 := readRuntimeHists()
		before := eng.Stats(false)
		wctx, stopWatch := context.WithCancel(context.Background())
		watchDone := make(chan *statsWatch, 1)
		heapDone := make(chan float64, 1)
		fr.t0 = b.clk.now()
		// Stats takes the engine lock the wheel harvests under; only a
		// traced pass, which reports queue depth and lag, polls it.
		if tr.enabled() {
			go func() { watchDone <- watchStats(wctx, eng, b.clk, fr.t0) }()
		} else {
			watchDone <- &statsWatch{}
		}
		if pass == 1 {
			// Live heap after the warm-up pass, as the last collection
			// before the middle of the second one marked it.
			go func(at int64) {
				b.clk.sleepUntil(at)
				heapDone <- liveHeapMB()
			}(fr.t0 + lastPassNs/2)
		}
		err = eng.Run(context.Background())
		t1 := b.clk.now()
		rtPasses.add(rt0, readRuntimeHists())
		stopWatch()
		watch := <-watchDone
		if pass == 1 {
			p.heapMB = <-heapDone
		}
		tr.record(0, "fleet.Run", 0, 0, fr.t0, t1)
		if err != nil {
			return nil, fmt.Errorf("fleet run: %w", err)
		}
		d := snapDelta(before, eng.Stats(false))
		total.add(d)
		lastPassNs = t1 - fr.t0
		runNs += lastPassNs
		queueMax = max(queueMax, watch.queueMax)
		lagMax = max(lagMax, watch.lagMax)
		rates = append(rates, float64(d.verdicts)/(float64(lastPassNs)/1e9))
		for i := range recs {
			if recs[i].next != b.horizon {
				p.checkf("pass %d stream %d: %d verdicts, want %d", pass, i, recs[i].next, b.horizon)
				p.failed += int64(b.horizon - recs[i].next)
			}
		}
		p.attempted += int64(unpacedStreams) * int64(b.horizon)
		p.foldCounts(recs)
		boundaryCounts(tr, recs)
		lat := samples(recs, func(r *streamRec) []float32 { return r.lat })
		r2v := samples(recs, func(r *streamRec) []float32 { return r.r2v })
		sampled += int64(len(lat))
		p50s = append(p50s, percentile(lat, 0.5))
		p99s = append(p99s, percentile(lat, 0.99))
		r2v50s = append(r2v50s, percentile(r2v, 0.5))
		r2v99s = append(r2v99s, percentile(r2v, 0.99))
		p.passes++
	}
	// Each pass's percentiles, then their median across passes: one
	// disturbed pass does not move the run's number.
	p.latP50, p.latP99 = median(p50s), median(p99s)
	p.layer["fleet.read_to_verdict_us_p50"] = median(r2v50s)
	p.layer["fleet.read_to_verdict_us_p99"] = median(r2v99s)
	p.latSamples = sampled
	p.vps = median(rates)
	p.spread = iqrFrac(rates)
	if sampled > 0 {
		p.goodput = p.vps * float64(p.ontime) / float64(sampled)
	}
	total.layers(p, runNs)
	if total.lost > 0 {
		p.checkf("%d hold-last verdicts on pull streams", total.lost)
	}
	p.layer["fleet.queue_depth_max"] = float64(queueMax)
	p.layer["fleet.lag_rotations_max"] = float64(lagMax)
	p.runtimeLayers(runtimeHists{}, rtPasses)
	p.observeNs = rs.observeNs()
	return p, nil
}
