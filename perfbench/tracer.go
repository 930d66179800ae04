package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// maxSpans caps the in-memory span buffer; spans past the cap are
// counted as dropped, not recorded.
const maxSpans = 200_000

// span is one timed call across a layer boundary. Spans of one sample
// share a Trace id; Parent links a span to the span that caused it.
// Times are nanoseconds on the run's clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory for the traced run and
// writes them out when the run ends. A nil or disabled tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	on     bool
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	drops  int64
	counts map[string]int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, counts: make(map[string]int64)}
}

func (t *tracer) enabled() bool { return t != nil && t.on }

// newID reserves a span id, so a parent can be named before its own
// span is recorded at its end.
func (t *tracer) newID() int64 {
	if !t.enabled() {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under id (0 reserves a fresh one).
func (t *tracer) record(id int64, name string, trace, parent, start, end int64) {
	if !t.enabled() {
		return
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
	} else {
		t.drops++
	}
	t.mu.Unlock()
}

// count adds n to a boundary counter.
func (t *tracer) count(name string, n int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// layerTime is one layer's share of the recorded spans.
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes aggregates span durations by layer. A span's self time is
// its duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		lt := out[layerOf(s.Name)]
		lt.Spans++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(self) / 1e6
		out[layerOf(s.Name)] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// traceFile is what a traced run writes: the host, the per-layer
// self-time table, the boundary counters, the tracing overhead against
// the same run's untraced pass, and the raw spans.
type traceFile struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Host      hostInfo             `json:"host"`
	Overhead  map[string]float64   `json:"overhead"`
	Untraced  map[string]float64   `json:"untraced_end_to_end"`
	Traced    map[string]float64   `json:"traced_end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	SelfTime  map[string]layerTime `json:"self_time"`
	Counters  map[string]int64     `json:"counters"`
	SpanDrops int64                `json:"span_drops"`
	Spans     []span               `json:"spans"`
}

func (t *tracer) write(path string, tf traceFile) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf.Spans = t.spans
	tf.SpanDrops = t.drops
	tf.Counters = t.counts
	tf.SelfTime = selfTimes(t.spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	return f.Close()
}
