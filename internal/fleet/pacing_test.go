package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/source"
	"repro/internal/supervise"
)

// TestWheelKeepsInterval is the pacing gate: with the default wheel (32
// slots, default harvest coalescing) a 10 ms fleet must rotate every
// 10 ms, not at whatever rate the timer can deliver sub-millisecond
// slot ticks.
func TestWheelKeepsInterval(t *testing.T) {
	const (
		streams   = 16
		rotations = 100
		interval  = 10 * time.Millisecond
	)
	e := newTestEngine(t, Config{Interval: interval, Policy: supervise.Block})
	for i := 0; i < streams; i++ {
		if err := e.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    source.NewSynthetic(uint64(i+1), 4),
			Intervals: rotations,
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Mean rotation: wall time up to the last tick run, over the
	// rotations that tick closes.
	ticks := e.tick.Load() - 1
	got := time.Duration(float64(time.Since(start)) * float64(len(e.slots)) / float64(ticks))
	if lo, hi := interval*95/100, interval*105/100; got < lo || got > hi {
		t.Fatalf("mean rotation %v over %d rotations, want %v ±5%%", got, e.Rotations(), interval)
	}
	snap := e.Stats(false)
	if snap.Verdicts != streams*rotations {
		t.Fatalf("%d verdicts, want %d", snap.Verdicts, streams*rotations)
	}
	// Every harvest books its slip: one weighted record per shard per
	// tick adds up to one count per stream interval.
	var slips int64
	for i, sh := range e.shards {
		slips += sh.slip.total.Load()
		if p50 := snap.Shards[i].P50SlipMicros; p50 >= float64(interval/time.Microsecond) {
			t.Errorf("shard %d: p50 slip %.0fµs, want under one interval", i, p50)
		}
	}
	if slips != streams*rotations {
		t.Fatalf("slip histograms hold %d harvests, want %d", slips, streams*rotations)
	}
}

// stallSource is a synthetic source that blocks once, inside the read
// of one interval, and logs every interval it is asked for.
type stallSource struct {
	src     *source.Synthetic
	stallAt int
	stall   time.Duration

	mu    sync.Mutex
	reads []int
}

func (s *stallSource) Read(ctx context.Context, interval int) ([]uint64, error) {
	s.mu.Lock()
	s.reads = append(s.reads, interval)
	s.mu.Unlock()
	if interval == s.stallAt {
		time.Sleep(s.stall)
	}
	return s.src.Read(ctx, interval)
}

// TestWheelCatchesUpAfterStall stalls one shard for three intervals
// mid-run; a one-batch ring with no coalescing backs the stall straight
// up into the wheel. The wheel must then harvest every overdue slot —
// no interval skipped or repeated, verdicts gap-free and in order — and
// be back on its wall-clock schedule by the end of the run.
func TestWheelCatchesUpAfterStall(t *testing.T) {
	const (
		streams   = 8
		rotations = 40
		interval  = 10 * time.Millisecond
	)
	e := newTestEngine(t, Config{
		Interval:        interval,
		Policy:          supervise.Block,
		PendingBatches:  1,
		MaxHarvestTicks: 1,
	})
	stalling := &stallSource{src: source.NewSynthetic(1, 4), stallAt: 10, stall: 3 * interval}
	cols := make([]*collector, streams)
	for i := range cols {
		cols[i] = &collector{}
		var src source.Source = source.NewSynthetic(uint64(i+1), 4)
		if i == 0 {
			src = stalling
		}
		if err := e.Add(StreamConfig{
			ID:        fmt.Sprintf("s%d", i),
			Source:    src,
			Intervals: rotations,
			OnVerdict: cols[i].add,
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The last tick ran at its deadline plus the time to shut down;
	// without catch-up it would trail by the whole stall.
	last := e.tick.Load() - 1
	if late := time.Since(start) - e.slotOffset(last); late > interval {
		t.Fatalf("run ended %v behind the wheel's schedule (stall was %v)", late, stalling.stall)
	}
	for i, c := range cols {
		requireGapFree(t, fmt.Sprintf("s%d", i), c.verdicts, rotations, 0)
	}
	if len(stalling.reads) != rotations {
		t.Fatalf("stalling stream read %d intervals, want %d", len(stalling.reads), rotations)
	}
	for i, iv := range stalling.reads {
		if iv != i {
			t.Fatalf("read %d was interval %d, want %d", i, iv, i)
		}
	}
	if lost := e.Stats(false).LostVerdicts; lost != 0 {
		t.Fatalf("%d lost verdicts, want 0", lost)
	}
}

// TestRunCancelDuringDeadlineSleep cancels Run while the wheel sleeps
// toward a far-off deadline: Run must return promptly with the
// context's error rather than wait the deadline out.
func TestRunCancelDuringDeadlineSleep(t *testing.T) {
	e := newTestEngine(t, Config{Interval: time.Hour, Policy: supervise.Block})
	if err := e.Add(StreamConfig{ID: "s0", Source: source.NewSynthetic(1, 4)}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx) }()
	// Let the wheel run its first tick and park on the next deadline,
	// two minutes away.
	for e.tick.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still sleeping 2s after cancellation")
	}
}
