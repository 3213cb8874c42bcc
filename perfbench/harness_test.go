package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileMatchesInclusiveMethod(t *testing.T) {
	// Python: statistics.quantiles([1..10], n=4, method="inclusive")
	// gives [3.25, 5.5, 7.75].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{0.25: 3.25, 0.5: 5.5, 0.75: 7.75, 0: 1, 1: 10} {
		if got := quantile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := quantile([]float64{4}, 0.99); got != 4 {
		t.Errorf("single sample: %v", got)
	}
}

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{39, 0, false}, // p75 leaves 39-30 = 9
		{40, 0.75, true},
		{100, 0.9, true},
		{199, 0.9, true}, // p95 leaves 199-190 = 9
		{200, 0.95, true},
		{999, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := tailLevel(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	d := summarize([]float64{5, 1, 3}, "ms")
	if d.N != 3 || d.P50 != 3 || d.TailLevel != 0 || d.Tail != 0 {
		t.Errorf("summarize small = %+v", d)
	}
}

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestTimelineAndVisibility(t *testing.T) {
	// Version 1 serves from the start. Flush A runs 1–4 s and is seen
	// at 4 s, but its flush counter only shows up one poll later. A
	// no-op flush bumps the counter at 5.0 s without publishing. Flush B
	// runs 5.5–8.0 s; flush C starts at 8.5 s and its publication is
	// never observed.
	polls := []StatsPoll{
		{At: sec(0), Version: 1},
		{At: sec(2), Version: 1},
		{At: sec(4), Version: 2},
		{At: sec(4.25), Version: 2, Flushes: 1, LastFlushMS: 3000},
		{At: sec(5.0), Version: 2, Flushes: 2, LastFlushMS: 1},
		{At: sec(8.0), Version: 3, Flushes: 3, LastFlushMS: 2500},
		{At: sec(9.0), Version: 3, Flushes: 3, LastFlushMS: 2500},
	}
	pubs := Timeline(polls)
	want := []Publication{{At: sec(4), Took: sec(3)}, {At: sec(8), Took: sec(2.5)}}
	if len(pubs) != len(want) {
		t.Fatalf("Timeline = %v, want %v", pubs, want)
	}
	for i := range want {
		if pubs[i] != want[i] {
			t.Errorf("pub %d = %v, want %v", i, pubs[i], want[i])
		}
	}

	// Acked at 0.5 s: in flush A (started 1 s), visible at 4 s. Acked at
	// 1 s: flush A started at exactly that moment, so it is in A. Acked
	// at 2 s: A is already running, so B (start 5.5 s), visible at 8 s.
	// Acked at 6 s: no observed flush starts later.
	lat, unseen := Visibility([]time.Duration{sec(0.5), sec(1), sec(2), sec(6)}, pubs)
	wantLat := []time.Duration{sec(3.5), sec(3), sec(6)}
	if unseen != 1 || len(lat) != len(wantLat) {
		t.Fatalf("Visibility = %v, unseen %d", lat, unseen)
	}
	for i := range wantLat {
		if d := lat[i] - wantLat[i]; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("latency %d = %v, want %v", i, lat[i], wantLat[i])
		}
	}
}

func TestSelfTimesFromNestedSpans(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "cubelsi.Build", Start: ms(0), End: ms(100)},
		// Two overlapping children cover 10–50 once; a third sticks out
		// of its parent and counts only up to 100.
		{ID: 2, Parent: 1, Name: "core.decompose", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "core.decompose", Start: ms(30), End: ms(50)},
		{ID: 4, Parent: 1, Name: "core.index", Start: ms(90), End: ms(120)},
		// A grandchild is charged to its own parent only.
		{ID: 5, Parent: 2, Name: "mat.eig", Start: ms(15), End: ms(25)},
		// A second root with no children keeps its whole duration.
		{ID: 6, Name: "http.search", Start: ms(0), End: ms(7)},
	}
	got := SelfTimes(spans)
	want := map[string]time.Duration{
		"cubelsi.Build":  ms(100 - 40 - 10),
		"core.decompose": ms(30-10) + ms(20),
		"core.index":     ms(30),
		"mat.eig":        ms(10),
		"http.search":    ms(7),
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self %s = %v, want %v", k, got[k], v)
		}
	}
	layers := LayerSelfMS(spans)
	if layers["core"] != 70 || layers["cubelsi"] != 50 || layers["mat"] != 10 || layers["http"] != 7 {
		t.Errorf("LayerSelfMS = %v", layers)
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	r.End(r.Begin("x", Ref{}))
	r.Interval("y", Ref{}, time.Now(), time.Now())
	if n := len(r.Spans()); n != 0 {
		t.Fatalf("%d spans recorded while off", n)
	}
	r.setEnabled(true)
	root := r.Begin("root", Ref{})
	child := r.Begin("child", root)
	r.End(child)
	r.End(root)
	sp := r.Spans()
	if len(sp) != 2 || sp[0].Parent != sp[1].ID || sp[0].Trace != sp[1].Trace {
		t.Fatalf("spans = %+v", sp)
	}
}
