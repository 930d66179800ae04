package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics, sorting xs in place. It
// returns 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// iqrFrac is the distance between the first and third quartiles as a
// share of the median: the run-to-run spread the benchmark reports.
func iqrFrac(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	m := percentile(c, 0.5)
	if len(c) < 2 || m == 0 {
		return 0
	}
	return (percentile(c, 0.75) - percentile(c, 0.25)) / m
}

// clock reads monotonic time as nanoseconds since a fixed base, so
// timestamps taken on shard goroutines are plain int64s.
type clock struct{ base time.Time }

func newClock() *clock { return &clock{base: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// sleepUntil blocks until the clock reads at least t.
func (c *clock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// runtimeHists snapshots the cumulative GC-pause and scheduler-latency
// histograms from runtime/metrics.
type runtimeHists struct {
	gcPause, schedLat *metrics.Float64Histogram
}

var runtimeHistNames = []string{"/sched/pauses/total/gc:seconds", "/sched/latencies:seconds"}

func readRuntimeHists() runtimeHists {
	s := make([]metrics.Sample, len(runtimeHistNames))
	for i, n := range runtimeHistNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var h runtimeHists
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h.gcPause = s[0].Value.Float64Histogram()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		h.schedLat = s[1].Value.Float64Histogram()
	}
	return h
}

// add adds the events recorded between two snapshots to h, so that
// windows with unmeasured gaps between them sum to one histogram.
func (h *runtimeHists) add(before, after runtimeHists) {
	h.gcPause = addDelta(h.gcPause, before.gcPause, after.gcPause)
	h.schedLat = addDelta(h.schedLat, before.schedLat, after.schedLat)
}

func addDelta(acc, before, after *metrics.Float64Histogram) *metrics.Float64Histogram {
	if after == nil {
		return acc
	}
	if acc == nil {
		acc = &metrics.Float64Histogram{Buckets: after.Buckets, Counts: make([]uint64, len(after.Counts))}
	}
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		acc.Counts[i] += c
	}
	return acc
}

// histDeltaQuantile returns the q-quantile, in seconds, of the events
// recorded between two snapshots of one cumulative histogram: the
// upper bound of the bucket holding the quantile (its lower bound when
// the bucket is open-ended). 0 with no events in between.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if after == nil {
		return 0
	}
	delta := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		delta[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// liveHeap returns the number of completed collections and, in MiB,
// the heap the most recent one marked live. It forces no collection,
// so reading it neither pauses the run nor takes CPU from it.
func liveHeap() (cycles uint64, mb float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		mb = float64(s[1].Value.Uint64()) / (1 << 20)
	}
	return cycles, mb
}

func liveHeapMB() float64 {
	_, mb := liveHeap()
	return mb
}

// heapMB is a paced window's heap_mb: the median of the live heaps its
// collections marked, or the last one marked before it when none ran
// inside it.
func heapMB(marked []float64) float64 {
	if len(marked) == 0 {
		return liveHeapMB()
	}
	return median(marked)
}

// hostInfo records where a run was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
