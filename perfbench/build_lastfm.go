package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/tagging"
)

// lastfmConfig is the build-lastfm and ingest-mixed pipeline: the
// paper's defaults with reduction ratio 20 (cubelsiserve -ratio 20).
func lastfmConfig() cubelsi.Config {
	cfg := cubelsi.DefaultConfig()
	cfg.ReductionRatios = [3]float64{20, 20, 20}
	cfg.Seed = 1
	return cfg
}

// subsample keeps each raw assignment with probability keep, drawn
// from seed. The workloads derive their inputs this way rather than by
// regenerating the corpus from the seed: a corpus generated from another
// seed has another structure (vocabulary size, so core size, and
// spectrum, so eigensolver rounds), which spread build_s over 17% and
// NDCG@10 over 22% of their medians across five seeds even averaged over
// three corpora. A subsample of one preset corpus varies the inputs while
// keeping their shape.
func subsample(raw *tagging.Dataset, seed int64, keep float64) *tagging.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := tagging.NewDataset()
	for _, a := range raw.Assignments() {
		if rng.Float64() < keep {
			out.Add(raw.Users.Name(a.User), raw.Tags.Name(a.Tag), raw.Resources.Name(a.Resource))
		}
	}
	return out
}

// lastfmSubsamples is how many subsamples of the LastFM preset corpus
// build-lastfm draws from its seed. Build time still depends on the
// subsample (the eigensolver's rounds follow the spectrum): with one
// subsample per run, build_s spread over 15% of its median across five
// seeds, so the run averages over several.
const lastfmSubsamples = 3

// runBuildLastFM times the offline pipeline: back-to-back cold
// cubelsi.Build runs over 90% subsamples of the LastFM preset corpus.
// Decompose is nearly all of it, so tucker, mat and tensor carry the
// load while ir and HTTP are idle but for a short in-process query
// phase.
func runBuildLastFM(ctx context.Context, b *bench) error {
	cfg := lastfmConfig()
	var corpus *datagen.Corpus
	raws := make([]*tagging.Dataset, lastfmSubsamples)
	var setup []float64
	for range 5 {
		t0 := time.Now()
		corpus = datagen.Generate(datagen.LastFMLike())
		for i := range raws {
			raws[i] = subsample(corpus.Raw, b.seed*lastfmSubsamples+int64(i), 0.9)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	b.e2e["setup_s"] = median(setup)
	b.timing("setup_s", "s", setup)
	queries := corpus.MakeQueries(512, 3, b.seed+1000)

	// Builds cycle through the subsamples while the window lasts, and at
	// least until subsample 0 has been built twice (the determinism
	// check); builds the hypervisor stole from are set aside and the
	// cycle runs on, up to 1.5 times the window, until every subsample
	// has a quiet one. In a traced run the second build of subsample 0 is
	// untraced, the other side of the overhead figure.
	type run struct {
		input int
		b     *built
		quiet bool
	}
	var runs []run
	hasQuiet := func(in int) bool {
		for _, r := range runs {
			if r.input == in && r.quiet {
				return true
			}
		}
		return false
	}
	epoch := time.Now()
	more := func() bool {
		switch {
		case len(runs) <= lastfmSubsamples:
			return true
		case time.Since(epoch) >= b.seconds*3/2:
			return false
		case time.Since(epoch) < b.seconds:
			return true
		}
		for in := range raws {
			if !hasQuiet(in) {
				return true
			}
		}
		return false
	}
	for i := 0; more(); i++ {
		in := i % lastfmSubsamples
		b.rec.setEnabled(b.traced && i != lastfmSubsamples)
		t0 := time.Now()
		bs, err := b.build("cubelsi.Build", func(opts ...cubelsi.BuildOption) (*cubelsi.Engine, error) {
			return cubelsi.Build(ctx, cubelsi.FromDataset(raws[in]), append(opts, cubelsi.WithConfig(cfg))...)
		})
		b.op(err)
		if err != nil {
			return err
		}
		runs = append(runs, run{input: in, b: bs, quiet: b.steal.share(t0, time.Now()) <= quietShare})
	}
	b.rec.setEnabled(b.traced)

	// build_s: each subsample's median quiet build (every build of a
	// subsample that had no quiet one), averaged over subsamples. The
	// counted builds, back to back, are also the timeline of visible_*.
	var counted []*built
	var quietS, totalS, sum float64
	for in := range raws {
		var mine []*built
		for _, r := range runs {
			if r.input == in && (r.quiet || !hasQuiet(in)) {
				mine = append(mine, r.b)
			}
		}
		sum += median(walls(mine))
		counted = append(counted, mine...)
	}
	for _, r := range runs {
		totalS += r.b.wall.Seconds()
		if r.quiet {
			quietS += r.b.wall.Seconds()
		}
	}
	b.quiet["builds"] = quietReport{Quiet: quietS, Total: totalS}
	b.e2e["build_s"] = sum / lastfmSubsamples
	b.timing("counted_build_s", "s", walls(counted))

	// Determinism: every repeat must reproduce its subsample's first
	// build — fit and every top-10 ranking — bit for bit.
	for _, r := range runs[lastfmSubsamples:] {
		first, repeat := runs[r.input].b.eng, r.b.eng
		b.check("repeated build fit", sameFloat(repeat.Stats().Fit, first.Stats().Fit))
		for _, q := range queries {
			query := cubelsi.NewQuery(q.Tags, cubelsi.WithLimit(10))
			b.check("repeated build top-10", sameResults(repeat.Query(query), first.Query(query)))
		}
	}
	first := runs[0].b.eng

	// ndcg10: mean NDCG@10 over the queries, averaged over the
	// subsamples' first builds.
	var ndcg float64
	for i := range raws {
		eng := runs[i].b.eng
		for _, q := range queries {
			ndcg += ndcg10Of(corpus, q, eng.Query(cubelsi.NewQuery(q.Tags, cubelsi.WithLimit(10))))
		}
	}
	b.e2e["ndcg10"] = ndcg / float64(len(queries)*lastfmSubsamples)

	// visible_*: a deployment that serves by cold rebuilds, running the
	// counted builds back to back and publishing each when it ends.
	// Writes arrive at seeded uniform times; each is visible when the
	// first build that started after it ends.
	pubs := make([]Publication, len(counted))
	var at time.Duration
	for i, bs := range counted {
		at += bs.wall
		pubs[i] = Publication{At: at, Took: bs.wall}
	}
	lo, hi := pubs[0].Start(), pubs[len(pubs)-1].Start()
	rng := rand.New(rand.NewSource(b.seed))
	acks := make([]time.Duration, 1000)
	for i := range acks {
		acks[i] = lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	lat, unseen := Visibility(acks, pubs)
	if unseen != 0 {
		return fmt.Errorf("%d writes fall after the last build started", unseen)
	}
	b.visibleMetrics(lat)

	// search_*: in-process Engine.Query, one closed-loop caller for a
	// quarter of the window, on a collected heap that holds only the
	// engine queried. One caller leaves the second core to the garbage
	// collector: with two, the p99 followed the collector's pauses.
	overheadWalls := [2]float64{runs[lastfmSubsamples].b.wall.Seconds(), runs[0].b.wall.Seconds()}
	firstBuild := runs[0].b
	runs, counted = nil, nil
	runtime.GC()
	window := b.seconds / 4
	n := int64(0)
	_, lat2, quiet := quietly(b, "search", window, window*3/2, func(until time.Time) []float64 {
		n++
		return b.inProcessLoop(ctx, first, queries, b.seed*1000+n, until)
	})
	if len(lat2) == 0 {
		return errors.New("no query completed")
	}
	b.searchMetrics(lat2, quiet)

	if !b.traced {
		return nil
	}
	b.overhead(overheadWalls[:1], overheadWalls[1:])
	b.buildLayers(firstBuild)
	if _, err := b.serveLayers(first, "", queries); err != nil {
		return err
	}
	b.replaySweep(cleanOf(raws[0], cfg), first.Stats().CoreDims, uint64(cfg.Seed))
	return nil
}

// inProcessLoop calls Engine.Query in a closed loop until the deadline
// and returns the latencies in ms.
func (b *bench) inProcessLoop(ctx context.Context, eng *cubelsi.Engine, queries []datagen.Query, seed int64, until time.Time) []float64 {
	rng := rand.New(rand.NewSource(seed))
	var lat []float64
	for ctx.Err() == nil && time.Now().Before(until) {
		q := queries[rng.Intn(len(queries))]
		sp := b.rec.Begin("cubelsi.Query", Ref{})
		t0 := time.Now()
		eng.Query(cubelsi.NewQuery(q.Tags, cubelsi.WithLimit(10)))
		lat = append(lat, ms(time.Since(t0)))
		b.rec.End(sp)
		b.op(nil)
	}
	return lat
}

// walls returns the builds' wall times in seconds.
func walls(bs []*built) []float64 {
	out := make([]float64, len(bs))
	for i, x := range bs {
		out[i] = x.wall.Seconds()
	}
	return out
}

func sameFloat(got, want float64) error {
	if got != want {
		return fmt.Errorf("%v, want %v", got, want)
	}
	return nil
}
