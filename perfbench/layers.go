package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/tagging"
	"repro/internal/tensor"
)

// built is one timed cold build.
type built struct {
	eng    *cubelsi.Engine
	wall   time.Duration
	cpu    time.Duration
	stages map[string]time.Duration // core stage → elapsed
}

// build runs one cold build — run calls cubelsi.Build or
// cubelsi.NewIndex with the options it is handed — under a span named
// name, with one child span per pipeline stage from the progress
// callbacks, and times it in wall and CPU seconds.
func (b *bench) build(name string, run func(opts ...cubelsi.BuildOption) (*cubelsi.Engine, error)) (*built, error) {
	out := &built{stages: map[string]time.Duration{}}
	var mu sync.Mutex
	started := map[cubelsi.Stage]time.Time{}
	sp := b.rec.Begin(name, Ref{})
	progress := cubelsi.WithProgress(func(p cubelsi.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if !p.Done {
			started[p.Stage] = time.Now()
			return
		}
		out.stages[p.Stage.String()] = p.Elapsed
		b.rec.Interval("core."+p.Stage.String(), sp, started[p.Stage], time.Now())
	})
	cpu0, t0 := cpuSelf(), time.Now()
	eng, err := run(progress)
	out.wall, out.cpu = time.Since(t0), cpuSelf()-cpu0
	b.rec.End(sp)
	if err != nil {
		return nil, err
	}
	out.eng = eng
	return out, nil
}

// buildLayers records a cold build's stage times, CPU next to wall, and
// the decomposition's sweep count and fit.
func (b *bench) buildLayers(bs *built) {
	for stage, d := range bs.stages {
		b.layers["core."+stage+"_ms"] = ms(d)
	}
	b.layers["build.wall_s"] = bs.wall.Seconds()
	b.layers["build.cpu_s"] = bs.cpu.Seconds()
	st := bs.eng.Stats()
	b.layers["tucker.sweeps"] = float64(st.Sweeps)
	b.layers["tucker.fit"] = st.Fit
}

// ndcg10Of grades a ranking against the corpus ground truth: NDCG@10 of
// one query, the paper's measure.
func ndcg10Of(c *datagen.Corpus, q datagen.Query, results []cubelsi.Result) float64 {
	ranked := make([]int, len(results))
	for i, r := range results {
		if id, ok := c.Clean.Resources.Lookup(r.Resource); ok {
			ranked[i] = c.Relevance(q, id)
		}
	}
	all := make([]int, c.Clean.Resources.Len())
	for id := range all {
		all[id] = c.Relevance(q, id)
	}
	return eval.NDCGAtN(ranked, all, 10)
}

// sameResults reports the first difference between two rankings, or nil.
func sameResults(got, want []cubelsi.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: %v, want %v", i+1, got[i], want[i])
		}
	}
	return nil
}

// serveLayers measures the in-process serving layers on eng, whose model
// is (or is first saved to) path: the codec load paths, the
// allocation-profile and latency of Engine.Query, and ir ranking alone
// on the decoded model. It returns the in-process Engine.Query p50 in µs.
func (b *bench) serveLayers(eng *cubelsi.Engine, path string, queries []datagen.Query) (float64, error) {
	if path == "" {
		path = filepath.Join(b.dir, "layers.clsi")
		if err := eng.SaveFile(path); err != nil {
			return 0, err
		}
	}
	var loads, mapped []float64
	for range 5 {
		sp := b.rec.Begin("codec.load", Ref{})
		t0 := time.Now()
		_, err := cubelsi.LoadFile(path)
		loads = append(loads, ms(time.Since(t0)))
		b.rec.End(sp)
		if err != nil {
			return 0, err
		}
		sp = b.rec.Begin("codec.load_mapped", Ref{})
		t0 = time.Now()
		m, err := cubelsi.LoadMapped(path)
		mapped = append(mapped, ms(time.Since(t0)))
		b.rec.End(sp)
		if err != nil {
			return 0, err
		}
		if err := m.Close(); err != nil {
			return 0, err
		}
	}
	b.layers["codec.load_ms"] = median(loads)
	b.layers["codec.load_mapped_ms"] = median(mapped)

	qs := make([]cubelsi.Query, len(queries))
	for i, q := range queries {
		qs[i] = cubelsi.NewQuery(q.Tags, cubelsi.WithLimit(10))
	}
	const calls = 4000
	lat := make([]float64, 0, calls)
	for i := range calls {
		sp := b.rec.Begin("cubelsi.Query", Ref{})
		t0 := time.Now()
		eng.Query(qs[i%len(qs)])
		lat = append(lat, us(time.Since(t0)))
		b.rec.End(sp)
	}
	d := b.timing("cubelsi.query_us", "us", lat)
	b.layers["cubelsi.query_p50_us"] = d.P50
	b.layers["cubelsi.query_p99_us"] = pct(lat, 0.99)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range calls {
		eng.Query(qs[i%len(qs)])
	}
	runtime.ReadMemStats(&m1)
	b.layers["cubelsi.query_allocs"] = float64(m1.Mallocs-m0.Mallocs) / calls
	b.layers["cubelsi.query_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / calls

	// ir alone: the decoded model's concept index, queried the way the
	// engine maps tags to concepts. Its rankings must match the engine's.
	model, err := readModel(path)
	if err != nil {
		return 0, err
	}
	tagID := make(map[string]int, len(model.Tags))
	for i, t := range model.Tags {
		tagID[t] = i
	}
	var rank []float64
	postings := 0
	for i := range calls {
		q := queries[i%len(queries)]
		counts := map[int]int{}
		for _, t := range q.Tags {
			if model.Lowercase {
				t = strings.ToLower(t)
			}
			if id, ok := tagID[t]; ok {
				counts[id]++
			}
		}
		concepts := ir.MapToConcepts(counts, model.Assign)
		sp := b.rec.Begin("ir.QueryMin", Ref{})
		t0 := time.Now()
		scored := model.Index.QueryMin(concepts, 10, 0)
		rank = append(rank, us(time.Since(t0)))
		b.rec.End(sp)
		if i < len(queries) {
			for c := range concepts {
				postings += model.Index.DocFreq(c)
			}
			want := eng.Query(qs[i])
			got := make([]cubelsi.Result, len(scored))
			for j, s := range scored {
				got[j] = cubelsi.Result{Resource: model.Resources[s.Doc], Score: s.Score}
			}
			b.check("ir ranking equals Engine.Query", sameResults(got, want))
		}
	}
	b.layers["ir.rank_p50_us"] = median(rank)
	b.layers["ir.postings_per_query"] = float64(postings) / float64(len(queries))
	return d.P50, nil
}

// replaySweep times the decomposition kernels on the workload's cleaned
// tensor: the HOSVD initialisation of modes 2 and 3 (the unfolding Gram
// operator under subspace iteration) and one ALS sweep from those
// factors — per mode the projected unfolding, its Gram product, and the
// leading-left SVD, with the eigensolver budgets the decomposition uses.
// The exact SVD path is replayed even where a build sketches.
func (b *bench) replaySweep(ds *tagging.Dataset, j [3]int, seed uint64) {
	f := ds.Tensor()
	root := b.rec.Begin("tucker.replay", Ref{})
	defer b.rec.End(root)
	initSub := mat.SubspaceOptions{Seed: seed, MaxIter: 48, Tol: 1e-4}
	sub := mat.SubspaceOptions{Seed: seed, MaxIter: 45, Tol: 1e-6}
	timed := func(name string, fn func()) time.Duration {
		sp := b.rec.Begin(name, root)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		b.rec.End(sp)
		return d
	}
	var y [4]*mat.Matrix
	for _, mode := range []int{2, 3} {
		d := timed("tucker.hosvd_init", func() {
			y[mode] = mat.SubspaceIteration(tensor.UnfoldingGram(f, mode), j[mode-1], initSub).Vectors
		})
		b.layers[fmt.Sprintf("tucker.hosvd_init_ms.mode%d", mode)] = ms(d)
	}
	others := map[int][2]int{1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
	for mode := 1; mode <= 3; mode++ {
		o := others[mode]
		var w *mat.Matrix
		d := timed("tensor.ProjectedUnfold", func() { w = tensor.ProjectedUnfold(f, mode, y[o[0]], y[o[1]]) })
		b.layers[fmt.Sprintf("tensor.unfold_ms.mode%d", mode)] = ms(d)
		// LeftSVD takes the Gram of the shorter side; time that one.
		d = timed("mat.SymMulT", func() {
			if w.Rows() <= w.Cols() {
				mat.SymMulT(w)
			} else {
				mat.SymMulT(w.T())
			}
		})
		b.layers[fmt.Sprintf("mat.gram_ms.mode%d", mode)] = ms(d)
		d = timed("mat.LeftSVD", func() { y[mode] = mat.LeftSVD(w, j[mode-1], sub).U })
		b.layers[fmt.Sprintf("mat.eig_ms.mode%d", mode)] = ms(d)
	}
}

// cleanOf cleans raw exactly as a build with cfg does.
func cleanOf(raw *tagging.Dataset, cfg cubelsi.Config) *tagging.Dataset {
	return tagging.Clean(raw, tagging.CleanOptions{
		MinSupport: cfg.MinSupport, DropSystemTags: cfg.DropSystemTags, Lowercase: cfg.Lowercase,
	})
}

// overhead reports how much slower the traced stretch of a loop ran
// than its untraced stretch, in percent of the untraced median.
func (b *bench) overhead(untraced, traced []float64) {
	if len(untraced) == 0 || len(traced) == 0 {
		return
	}
	u := median(untraced)
	b.layers["trace.overhead_pct"] = 100 * (median(traced) - u) / u
}

// readModel heap-decodes a model file with the codec directly.
func readModel(path string) (*codec.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return codec.Read(bufio.NewReader(f))
}
