package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
)

// wireDrainTimeout bounds how long a run waits, after the window, for
// the server to score and echo every sample still buffered.
const wireDrainTimeout = 60 * time.Second

// wireVerdict is one VERDICT as the client read it.
type wireVerdict struct {
	v  ingest.Verdict
	at int64
}

// wireClient is one open-loop connection: the sender's timings and the
// reader's verdicts. Each goroutine owns its half until both are
// joined.
type wireClient struct {
	c        *ingest.Client
	v        variant
	sendAt   []int64 // per seq: when Send was called
	sendEnd  []int64 // per seq: when Send returned
	sendErr  error
	verdicts []wireVerdict
	shed     int64
	readErr  error
	drained  bool
}

// runWire is wire-10ms: nproc loopback connections, one stream each,
// one SAMPLE frame per 10 ms for the window, against hmd-serve's
// ingest-mode engine and server.
func (b *bench) runWire(tr *tracer) (*phase, error) {
	p := newPhase()
	width := len(b.chain.Events())
	eng, err := fleet.New(b.engineConfig(b.chain, nil))
	if err != nil {
		return nil, fmt.Errorf("fleet engine: %w", err)
	}
	srv, ln, served, err := startServer(eng, width)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	engDone := make(chan error, 1)
	go func() { engDone <- eng.Run(ctx) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-engDone
		srv.Close()
		ln.Close()
		<-served
	}
	defer stop()

	n := runtime.NumCPU()
	nSend := int(b.window / sampleInterval)
	clients := make([]*wireClient, n)
	for i := range clients {
		s := b.clk.now()
		c, err := ingest.Dial(ingest.ClientConfig{
			Addr:  ln.Addr().String(),
			Hello: ingest.Hello{Width: width, Tenant: "bench", Stream: fmt.Sprintf("c%02d", i)},
		})
		tr.record(0, "ingest.Dial", 0, 0, s, b.clk.now())
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		if c.Admitted.Resume != 0 {
			c.Close()
			return nil, fmt.Errorf("client %d: fresh stream resumed at %d", i, c.Admitted.Resume)
		}
		clients[i] = &wireClient{
			c:       c,
			v:       b.in.assign(b.seed, i, 0),
			sendAt:  make([]int64, 0, nSend),
			sendEnd: make([]int64, 0, nSend),
		}
	}

	before := eng.Stats(false)
	rt0 := readRuntimeHists()
	// Interval 0 is due a little after the last client is admitted, so
	// every sender starts on schedule.
	t0 := b.clk.now() + int64(20*time.Millisecond)
	end := t0 + int64(b.window)
	deadline := end + int64(latencyLimit)
	due := func(k int) int64 { return t0 + int64(k)*int64(sampleInterval) }

	var wg sync.WaitGroup
	for _, wc := range clients {
		wg.Add(2)
		go func(wc *wireClient) {
			defer wg.Done()
			b.sendLoop(wc, nSend, due)
		}(wc)
		go func(wc *wireClient) {
			defer wg.Done()
			b.readLoop(wc)
		}(wc)
	}
	wctx, stopWatch := context.WithCancel(ctx)
	watchDone := make(chan *statsWatch, 1)
	go func() { watchDone <- watchStats(wctx, eng, b.clk, t0) }()
	b.clk.sleepUntil(end)
	after := eng.Stats(false)
	rt1 := readRuntimeHists()
	stopWatch()
	watch := <-watchDone
	b.clk.sleepUntil(deadline)
	// The wire's heap stays under the runtime's minimum collection
	// target, so collections inside the window are rare (none or one)
	// and their marks land anywhere in the run. Collections forced after
	// the deadline, outside every measured figure, mark the heap with the
	// server still loaded: each stream's ring holds its undrained backlog
	// until the engine scores it. It takes two: sync.Pools keep their
	// contents through the first as its victim cache.
	runtime.GC()
	runtime.GC()
	p.heapMB, p.heapCycles = liveHeapMB(), len(watch.heapMarked)

	// After the window every client has said BYE; the server scores
	// what is still buffered, echoes it, and closes each connection.
	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(wireDrainTimeout):
		p.checkf("clients still open %v after the window; closing them", wireDrainTimeout)
		for _, wc := range clients {
			wc.c.Close()
		}
		<-joined
	}
	// Once every stream has finished the engine drains on its own.
	select {
	case err := <-engDone:
		engDone <- err
		if err != nil {
			p.checkf("engine: %v", err)
		}
	case <-time.After(wireDrainTimeout):
		p.checkf("engine still running %v after every stream said BYE", wireDrainTimeout)
	}
	ist := srv.StatsSnapshot(false)
	stop()
	tr.record(0, "fleet.Run", 0, 0, t0, b.clk.now())

	p.attempted = int64(n) * int64(nSend)
	rs := &referenceSet{}
	var sendUs, lateMs []float64
	for i, wc := range clients {
		if wc.sendErr != nil {
			p.checkf("client %d send: %v", i, wc.sendErr)
		}
		if wc.readErr != nil {
			p.checkf("client %d read: %v", i, wc.readErr)
		}
		if !wc.drained {
			p.checkf("client %d: the server never sent the finished DRAIN", i)
		}
		b.checkWireStream(p, rs, i, wc, nSend, deadline)
		for k := range wc.sendAt {
			sendUs = append(sendUs, float64(wc.sendEnd[k]-wc.sendAt[k])/1e3)
			lateMs = append(lateMs, float64(wc.sendAt[k]-due(k))/1e6)
		}
		for _, wv := range wc.verdicts {
			// The engine harvests a queued stream's interval j from the
			// server's source, out of the benchmark's sight; the verdict
			// of interval j reaching the client bounds that harvest's
			// slip against the interval's 10 ms due time from above.
			if j := int(wv.v.Interval); j < nSend && wv.at <= deadline {
				p.slipMs = append(p.slipMs, float64(wv.at-due(j))/1e6)
			}
			k := int(wv.v.Seq)
			if k >= len(wc.sendAt) || wv.at > deadline {
				continue
			}
			late := wv.at - due(k)
			p.inWindow++
			p.latMs = append(p.latMs, float64(late)/1e6)
			if late <= int64(latencyLimit) {
				p.ontime++
			}
			if i == 0 && tr.enabled() {
				trace := int64(k)
				root := tr.newID()
				tr.record(0, "gen.wait", trace, root, due(k), wc.sendAt[k])
				tr.record(0, "ingest.Send", trace, root, wc.sendAt[k], wc.sendEnd[k])
				tr.record(0, "server.path", trace, root, wc.sendEnd[k], wv.at)
				tr.record(root, "e2e.sample", trace, 0, due(k), wv.at)
			}
		}
		tr.count("client.sends", int64(len(wc.sendAt)))
		tr.count("client.verdicts", int64(len(wc.verdicts)))
		tr.count("client.shed", wc.shed)
	}
	p.vps = float64(p.inWindow) / b.window.Seconds()
	p.goodput = float64(p.ontime) / b.window.Seconds()
	p.observeNs = rs.observeNs()

	b.checkIngest(p, ist, int64(n)*int64(nSend))
	p.layer["ingest.send_us_p50"] = percentile(sendUs, 0.5)
	p.layer["ingest.send_us_p99"] = percentile(sendUs, 0.99)
	p.layer["gen.late_ms_p99"] = percentile(lateMs, 0.99)
	d := snapDelta(before, after)
	d.layers(p, end-t0)
	// The read happens inside the server's source too: the engine's own
	// harvest-to-verdict histogram stands in for read-to-verdict.
	p.layer["fleet.read_to_verdict_us_p50"] = d.lagQuantile(0.5)
	p.layer["fleet.read_to_verdict_us_p99"] = d.lagQuantile(0.99)
	p.layer["fleet.queue_depth_max"] = float64(watch.queueMax)
	p.layer["fleet.lag_rotations_max"] = float64(watch.lagMax)
	p.spread = iqrFrac(watch.perSecond)
	p.runtimeLayers(rt0, rt1)
	return p, nil
}

// sendLoop is one client's open-loop generator: sample k goes out at
// its due time whether or not earlier verdicts have come back, then
// BYE ends the stream.
func (b *bench) sendLoop(wc *wireClient, nSend int, due func(int) int64) {
	for k := 0; k < nSend; k++ {
		b.clk.sleepUntil(due(k))
		s := b.clk.now()
		err := wc.c.Send(uint32(k), b.in.sample(wc.v, k))
		wc.sendAt = append(wc.sendAt, s)
		wc.sendEnd = append(wc.sendEnd, b.clk.now())
		if err != nil {
			wc.sendErr = err
			return
		}
	}
	if err := wc.c.Bye(); err != nil {
		wc.sendErr = fmt.Errorf("bye: %w", err)
	}
}

// readLoop collects one client's server frames until the server closes
// the finished stream.
func (b *bench) readLoop(wc *wireClient) {
	for {
		ev, err := wc.c.Next()
		if err != nil {
			if !wc.drained {
				wc.readErr = err
			}
			return
		}
		switch ev.Type {
		case ingest.FrameVerdict:
			wc.verdicts = append(wc.verdicts, wireVerdict{v: ev.Verdict, at: b.clk.now()})
		case ingest.FrameShed:
			wc.shed += int64(ev.Shed.Count)
		case ingest.FrameDrain:
			wc.drained = true
		default:
			wc.readErr = fmt.Errorf("unexpected frame 0x%02x (%s)", ev.Type, ev.Reason)
		}
	}
}

// checkWireStream replays the samples that reached the chain — the
// delivered seqs in order, with a hold-last step for every engine
// interval no sample answered — through a fresh chain and compares
// every delivered verdict bit for bit. Every sent sample must be
// either answered or reported shed.
func (b *bench) checkWireStream(p *phase, rs *referenceSet, i int, wc *wireClient, nSend int, deadline int64) {
	ch, err := b.replicate()
	if err != nil {
		p.checkf("client %d: reference chain: %v", i, err)
		p.failed += int64(len(wc.sendAt))
		return
	}
	bad := 0
	expect := 0
	lastSeq := -1
	start := time.Now()
	for j, wv := range wc.verdicts {
		v := wv.v
		if int(v.Seq) <= lastSeq || int(v.Seq) >= len(wc.sendAt) || int(v.Interval) < expect {
			bad++
			continue
		}
		lastSeq = int(v.Seq)
		for ; expect < int(v.Interval); expect++ {
			ch.ObserveLost()
		}
		ref, err := ch.Observe(b.in.sample(wc.v, int(v.Seq)))
		expect++
		rs.observes++
		if b.corrupt && i == 0 && j == 0 {
			ref.Score = -ref.Score - 1
		}
		if err != nil || ref.Interval != int(v.Interval) || !sameVerdict(ref, v) {
			bad++
			continue
		}
		if wv.at <= deadline {
			p.delivered++
		}
	}
	rs.elapsed += time.Since(start)
	if bad > 0 {
		p.failed += int64(bad)
		p.checkf("client %d: %d verdicts differ from the sequential reference", i, bad)
	}
	if got := int64(len(wc.verdicts)) + wc.shed; got != int64(len(wc.sendAt)) {
		p.failed += abs64(int64(len(wc.sendAt)) - got)
		p.checkf("client %d: %d samples sent, %d answered + %d shed", i, len(wc.sendAt), len(wc.verdicts), wc.shed)
	}
	if len(wc.sendAt) != nSend {
		p.checkf("client %d: sent %d of %d samples", i, len(wc.sendAt), nSend)
	}
}

func sameVerdict(ref core.Verdict, v ingest.Verdict) bool {
	return math.Float64bits(ref.Score) == math.Float64bits(v.Score) && ref.Malware == v.Malware
}

// checkIngest holds the server to its accounting identities and fills
// the ingest per-layer metrics.
func (b *bench) checkIngest(p *phase, st ingest.Stats, sent int64) {
	if st.SamplesAccepted != st.VerdictsAttributed+st.SamplesShed {
		p.checkf("ingest: accepted %d != attributed %d + shed %d", st.SamplesAccepted, st.VerdictsAttributed, st.SamplesShed)
	}
	if st.Verdicts != st.VerdictsAttributed+st.VerdictsHeld {
		p.checkf("ingest: verdicts %d != attributed %d + held %d", st.Verdicts, st.VerdictsAttributed, st.VerdictsHeld)
	}
	if st.SamplesAccepted != sent {
		p.checkf("ingest: accepted %d of %d samples sent", st.SamplesAccepted, sent)
	}
	for name, n := range map[string]int64{
		"evictions":            st.ConnsEvicted,
		"protocol errors":      st.ProtoErrors,
		"wire errors":          st.WireErrors,
		"undelivered verdicts": st.VerdictsUndelivered,
		"duplicate samples":    st.SamplesDup,
		"throttled samples":    st.SamplesThrottled,
	} {
		if n != 0 {
			p.checkf("ingest: %d %s", n, name)
		}
	}
	if st.SamplesAccepted > 0 {
		p.layer["ingest.shed_frac"] = float64(st.SamplesShed) / float64(st.SamplesAccepted)
	}
	if st.VerdictsAttributed > 0 {
		p.layer["ingest.server_writes_per_verdict"] = float64(st.WriteSyscalls) / float64(st.VerdictsAttributed)
	}
	if st.WriteSyscalls > 0 {
		p.layer["ingest.verdict_batch_frac"] = float64(st.VerdictBatches) / float64(st.WriteSyscalls)
	}
	p.layer["ingest.evictions"] = float64(st.ConnsEvicted)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
