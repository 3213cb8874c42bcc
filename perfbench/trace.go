package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one recorded interval around a call into a layer. Spans of one
// operation share Trace; Parent is the ID of the span that caused it
// (0 for a root). Start and End are offsets from the recorder's epoch.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Ref identifies an open span. The zero Ref is "no parent".
type Ref struct {
	id, parent, trace uint64
	name              string
	start             time.Time
}

// Recorder keeps spans in memory until the run ends. One switched off
// records nothing and costs an atomic load per call, which is how
// untraced runs use it.
type Recorder struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newRecorder(on bool) *Recorder {
	r := &Recorder{epoch: time.Now()}
	r.on.Store(on)
	return r
}

func (r *Recorder) enabled() bool { return r.on.Load() }

// setEnabled switches recording on or off; the traced run uses it to
// measure a stretch of the same loop untraced for the overhead figure.
func (r *Recorder) setEnabled(on bool) { r.on.Store(on) }

// Begin opens a span named name under parent (a root when parent is the
// zero Ref).
func (r *Recorder) Begin(name string, parent Ref) Ref {
	if !r.enabled() {
		return Ref{}
	}
	id := r.next.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return Ref{id: id, parent: parent.id, trace: trace, name: name, start: time.Now()}
}

// End closes a span opened by Begin. Ending the zero Ref is a no-op.
func (r *Recorder) End(ref Ref) {
	if ref.id == 0 {
		return
	}
	r.add(Span{ID: ref.id, Parent: ref.parent, Trace: ref.trace, Name: ref.name,
		Start: ref.start.Sub(r.epoch), End: time.Since(r.epoch)})
}

// Interval records a span whose bounds were measured elsewhere (the
// build's progress callbacks report stage start and finish).
func (r *Recorder) Interval(name string, parent Ref, start, end time.Time) {
	if !r.enabled() {
		return
	}
	id := r.next.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	r.add(Span{ID: id, Parent: parent.id, Trace: trace, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one span per line to path.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes returns, per span name, the summed self time of its spans: a
// span's duration minus the part of its interval its children cover.
// Overlapping children (concurrent work under one parent) are counted
// once, and a child sticking out of its parent counts only inside it.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// kids' intervals.
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// layerOf maps a span name ("core.decompose", "http.search") to its layer
// ("core", "http").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// LayerSelfMS sums SelfTimes by layer, in milliseconds.
func LayerSelfMS(spans []Span) map[string]float64 {
	out := make(map[string]float64)
	for name, d := range SelfTimes(spans) {
		out[layerOf(name)] += ms(d)
	}
	return out
}
