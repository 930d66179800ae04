package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/mlearn/zoo"
	"repro/internal/source"
	"repro/internal/supervise"
)

// hmd-serve's defaults for a cold start without a model checkpoint:
// -apps 4 -intervals 10 corpus, 70/30 split, -seed 1, REPTree 4→2
// chain with a 5-sample verdict window, compiled tier.
const (
	trainApps      = 4
	trainIntervals = 10
	trainFrac      = 0.7
	trainSeed      = 1
	chainWindow    = 5
	baseClassifier = "REPTree"
)

var chainCounts = []int{4, 2}

// setupTimes are one cold start's timings, in seconds.
type setupTimes struct {
	total, corpus, train, replicate float64
}

// trained is what a cold start leaves behind for the measured phases.
type trained struct {
	chain     *core.FallbackChain
	replicate func() (*core.FallbackChain, error)
}

// coldStart runs hmd-serve's start without a model checkpoint, from
// corpus collection and training through the engine (and, for the
// wire, the ingest server) being up and the first stream admitted,
// then tears the probe engine down again. The timed calls are spans
// of the traced run's setup tree.
func (b *bench) coldStart() (trained, setupTimes, error) {
	var st setupTimes
	// A process starts cold with an empty heap; do not make this start
	// collect the previous one's garbage.
	runtime.GC()
	root := b.tr.newID()
	t0 := b.clk.now()

	cfg := collect.Default()
	cfg.Suite.AppsPerFamily = trainApps
	cfg.Intervals = trainIntervals
	res, err := collect.Collect(cfg)
	t1 := b.clk.now()
	b.tr.record(0, "collect.Collect", 0, root, t0, t1)
	if err != nil {
		return trained{}, st, fmt.Errorf("collecting corpus: %w", err)
	}

	bld, err := core.NewBuilder(res.Data, trainFrac, trainSeed)
	if err != nil {
		return trained{}, st, fmt.Errorf("splitting corpus: %w", err)
	}
	chain, err := bld.BuildChain(baseClassifier, b.variant(), chainCounts, core.ChainConfig{Window: chainWindow})
	t2 := b.clk.now()
	b.tr.record(0, "core.BuildChain", 0, root, t1, t2)
	if err != nil {
		return trained{}, st, fmt.Errorf("training chain: %w", err)
	}
	chain.SetTier(core.TierCompiled)

	replicate, err := core.NewChainReplicator(chain)
	if err == nil {
		_, err = replicate()
	}
	t3 := b.clk.now()
	b.tr.record(0, "core.NewChainReplicator", 0, root, t2, t3)
	if err != nil {
		return trained{}, st, fmt.Errorf("replicating chain: %w", err)
	}

	teardown, err := b.bringUp(chain, root)
	t4 := b.clk.now()
	if teardown != nil {
		teardown()
	}
	if err != nil {
		return trained{}, st, err
	}
	b.tr.record(root, "setup.coldstart", 0, 0, t0, t4)
	st = setupTimes{
		total:     float64(t4-t0) / 1e9,
		corpus:    float64(t1-t0) / 1e9,
		train:     float64(t2-t1) / 1e9,
		replicate: float64(t3-t2) / 1e9,
	}
	return trained{chain: chain, replicate: replicate}, st, nil
}

// variant is the zoo variant the workload's chain trains: the paper's
// boosted ensemble for the scoring-ceiling workload, hmd-serve's
// general default otherwise.
func (b *bench) variant() zoo.Variant {
	if b.workload == wlUnpaced {
		return zoo.Boosted
	}
	return zoo.General
}

// engineConfig is hmd-serve's fleet configuration for the workload:
// default shards (GOMAXPROCS), 32-slot wheel and harvest cap (left
// unset), Block policy, -queue 8, compiled tier.
func (b *bench) engineConfig(chain *core.FallbackChain, store *core.CheckpointStore) fleet.Config {
	cfg := fleet.Config{
		Chain:          chain,
		Interval:       sampleInterval,
		Policy:         supervise.Block,
		PendingBatches: 8,
		Tier:           core.TierCompiled,
	}
	if b.workload == wlUnpaced {
		cfg.Interval = 0
	}
	if store != nil {
		cfg.Checkpoint = store
		cfg.CheckpointEvery = checkpointEvery
	}
	return cfg
}

// bringUp starts the serving side the way hmd-serve does and admits
// the first stream. The returned teardown releases everything it
// started.
func (b *bench) bringUp(chain *core.FallbackChain, parent int64) (func(), error) {
	var store *core.CheckpointStore
	var dir string
	if b.workload == wlPaced {
		var err error
		if dir, err = os.MkdirTemp(b.scratch, "setup-ckpt-"); err != nil {
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
		if store, err = core.NewCheckpointStore(dir, "fleet", fleet.StateVersion); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	cleanupDir := func() {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	s := b.clk.now()
	eng, err := fleet.New(b.engineConfig(chain, store))
	b.tr.record(0, "fleet.New", 0, parent, s, b.clk.now())
	if err != nil {
		cleanupDir()
		return nil, fmt.Errorf("fleet engine: %w", err)
	}
	if b.workload != wlWire {
		s = b.clk.now()
		err = eng.Add(fleet.StreamConfig{ID: "setup-probe", Source: source.NewSynthetic(b.seed, len(chain.Events()))})
		b.tr.record(0, "fleet.Add", 0, parent, s, b.clk.now())
		if err != nil {
			cleanupDir()
			return nil, fmt.Errorf("admitting first stream: %w", err)
		}
		return cleanupDir, nil
	}

	s = b.clk.now()
	srv, ln, served, err := startServer(eng, len(chain.Events()))
	b.tr.record(0, "ingest.NewServer", 0, parent, s, b.clk.now())
	if err != nil {
		return nil, err
	}
	stop := func() {
		srv.Close()
		ln.Close()
		<-served
	}
	s = b.clk.now()
	c, err := ingest.Dial(ingest.ClientConfig{
		Addr:  ln.Addr().String(),
		Hello: ingest.Hello{Width: len(chain.Events()), Tenant: "bench", Stream: "setup-probe"},
	})
	b.tr.record(0, "ingest.Dial", 0, parent, s, b.clk.now())
	if err != nil {
		stop()
		return nil, fmt.Errorf("admitting first stream: %w", err)
	}
	return func() {
		c.Close()
		stop()
	}, nil
}

// startServer opens hmd-serve's ingest front door on a loopback port
// with its defaults (window 64, connection cap 1024, no quotas). The
// served channel closes once Serve has returned.
func startServer(eng *fleet.Engine, width int) (*ingest.Server, net.Listener, chan struct{}, error) {
	srv, err := ingest.NewServer(ingest.Config{Engine: eng, Width: width})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ingest server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ingest listen: %w", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, ingest.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: ingest serve: %v\n", err)
		}
	}()
	return srv, ln, served, nil
}

// setup runs the configured number of cold starts and keeps the last
// chain; the per-step timings are reported as medians across them.
func (b *bench) setup() (trained, map[string]float64, error) {
	var tr trained
	var total, corpus, train, replicate []float64
	for i := 0; i < b.setupReps; i++ {
		t, st, err := b.coldStart()
		if err != nil {
			return trained{}, nil, err
		}
		tr = t
		total = append(total, st.total)
		corpus = append(corpus, st.corpus)
		train = append(train, st.train)
		replicate = append(replicate, st.replicate*1e3)
	}
	return tr, map[string]float64{
		"setup_s":           median(total),
		"setup_spread":      iqrFrac(total),
		"collect.corpus_s":  median(corpus),
		"core.train_s":      median(train),
		"core.replicate_ms": median(replicate),
	}, nil
}
