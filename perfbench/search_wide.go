package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/datagen"
)

// searchConns is the closed loop's client count: one per core of the
// two-core machine the benchmark was sized on, sharing those cores with
// the server. An open loop was rejected: a prototype at 400 req/s over
// two connections read p99 of 5.7, 15.3 and 38 ms in three 15-s runs.
const searchConns = 2

// searchCorpus is BibsonomyLike scaled to 500 users, 10k resources and
// 100k assignments: a wide resource side (about 8.5k after cleaning) for
// the concept index to rank.
func searchCorpus() *datagen.Corpus {
	p := datagen.BibsonomyLike()
	p.Users, p.Resources, p.Assignments = 500, 10000, 100000
	return datagen.Generate(p)
}

// searchConfig fixes the served model's shape. MaxSweeps 3 keeps the
// set-up build's cost independent of how fast a seed's corpus
// converges (3 to 7 sweeps otherwise on this corpus shape).
func searchConfig() cubelsi.Config {
	cfg := cubelsi.DefaultConfig()
	cfg.CoreDims = [3]int{16, 40, 16}
	cfg.Concepts = 36
	cfg.MaxSweeps = 3
	return cfg
}

// runSearchWide serves read-only GET /search traffic from a model-backed
// cubelsiserve over a model of a 90% subsample of searchCorpus: ir
// ranking is most of each request, tucker is idle after set-up.
func runSearchWide(ctx context.Context, b *bench) error {
	cfg := searchConfig()
	t0 := time.Now()
	corpus := searchCorpus()
	raw := subsample(corpus.Raw, b.seed, 0.9)
	bs, err := b.build("cubelsi.Build", func(opts ...cubelsi.BuildOption) (*cubelsi.Engine, error) {
		return cubelsi.Build(ctx, cubelsi.FromDataset(raw), append(opts, cubelsi.WithConfig(cfg), cubelsi.WithSketch(0, 0))...)
	})
	b.op(err)
	if err != nil {
		return err
	}
	model := filepath.Join(b.dir, "model.clsi")
	sp := b.rec.Begin("cubelsi.SaveFile", Ref{})
	err = bs.eng.SaveFile(model)
	b.rec.End(sp)
	if err != nil {
		return err
	}
	prepared := time.Since(t0)
	b.e2e["build_s"] = bs.wall.Seconds()

	// Server start-up (model load to /readyz) is repeated three times;
	// set-up time is the preparation plus the median start-up.
	var srv *server
	var starts []float64
	for i := range 3 {
		t1 := time.Now()
		s, err := startServer(ctx, b.bin, filepath.Join(b.dir, fmt.Sprintf("server%d.log", i)), searchConns, "-model", model)
		if err != nil {
			return err
		}
		starts = append(starts, time.Since(t1).Seconds())
		if i < 2 {
			if err := b.stopServer(s); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	defer b.stopServer(srv)
	b.e2e["setup_s"] = prepared.Seconds() + median(starts)
	b.timing("server_start_s", "s", starts)

	// Expected answers come from the same model file, loaded in process.
	queries := corpus.MakeQueries(512, 3, b.seed+1000)
	ref, err := cubelsi.LoadFile(model)
	if err != nil {
		return err
	}
	want := make([][]cubelsi.Result, len(queries))
	for i, q := range queries {
		want[i] = ref.Query(cubelsi.NewQuery(q.Tags, cubelsi.WithLimit(10)))
	}
	check := func(qi int, got []cubelsi.Result) error {
		if err := sameResults(got, want[qi]); err != nil {
			return fmt.Errorf("query %v: %w", queries[qi].Tags, err)
		}
		return nil
	}

	// Every distinct query once: the served-equals-in-process check, the
	// served NDCG@10, and the warm-up.
	var ndcg float64
	for qi, q := range queries {
		got, err := srv.search(ctx, q.Tags, 10)
		if err == nil {
			err = check(qi, got)
		}
		b.check("served top-10 equals Engine.Query", err)
		ndcg += ndcg10Of(corpus, q, got)
	}
	b.e2e["ndcg10"] = ndcg / float64(len(queries))

	// The measured closed loop. A traced run spends a quarter window
	// untraced first, for the overhead figure.
	epoch := time.Now()
	var untraced []request
	if b.traced {
		b.rec.setEnabled(false)
		var all []request
		all, untraced, _ = b.quietLoop(ctx, "search_untraced", srv, epoch, searchConns, b.seed+7, queries, b.seconds/4, check)
		b.checks["served top-10, untraced"] = errString(b.tally(all))
		b.rec.setEnabled(true)
	}
	all, kept, quiet := b.quietLoop(ctx, "search", srv, epoch, searchConns, b.seed, queries, b.seconds, check)
	b.checks["served top-10 in the loop"] = errString(b.tally(all))
	lat := latencies(kept)
	b.searchMetrics(lat, quiet)

	// visible_*: a model-backed server publishes a new model file through
	// POST /reload; the swap is visible once the call returns.
	resources := bs.eng.Stats().Resources
	_, reloads, _ := quietly(b, "reload", 2*time.Second, 10*time.Second, func(until time.Time) []time.Duration {
		var out []time.Duration
		for time.Now().Before(until) && ctx.Err() == nil {
			var resp struct {
				Resources int `json:"resources"`
			}
			sp := b.rec.Begin("http.reload", Ref{})
			t1 := time.Now()
			err := srv.post(ctx, "/reload", "application/json", nil, &resp)
			out = append(out, time.Since(t1))
			b.rec.End(sp)
			if err == nil && resp.Resources != resources {
				err = fmt.Errorf("reloaded %d resources, want %d", resp.Resources, resources)
			}
			b.check("reload serves the model", err)
		}
		return out
	})
	b.visibleMetrics(reloads)

	if err := b.stopServer(srv); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	b.overhead(latencies(untraced), lat)
	b.buildLayers(bs)
	inproc, err := b.serveLayers(ref, model, queries)
	if err != nil {
		return err
	}
	b.layers["http.search_overhead_us"] = 1000*median(lat) - inproc
	b.replaySweep(cleanOf(raw, cfg), bs.eng.Stats().CoreDims, uint64(cfg.Seed))
	return nil
}

func errString(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}
