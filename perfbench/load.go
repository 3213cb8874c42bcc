package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/internal/datagen"
)

// request is one completed request of a load loop, on the run's clock.
type request struct {
	start, end time.Duration
	err        error
}

func (r request) latency() time.Duration { return r.end - r.start }

// closedLoop runs conns clients against GET /search until the deadline.
// Each client sends its next query only when the previous answer has
// arrived, drawing queries from a seeded stream of its own; check, when
// set, validates every answer against the expected ranking.
func (b *bench) closedLoop(ctx context.Context, srv *server, epoch time.Time, conns int, seed int64,
	queries []datagen.Query, until time.Time, check func(qi int, got []cubelsi.Result) error) []request {
	out := make([][]request, conns)
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(c)))
			for ctx.Err() == nil && time.Now().Before(until) {
				qi := rng.Intn(len(queries))
				sp := b.rec.Begin("http.search", Ref{})
				start := time.Since(epoch)
				res, err := srv.search(ctx, queries[qi].Tags, 10)
				end := time.Since(epoch)
				b.rec.End(sp)
				if err == nil && check != nil {
					err = check(qi, res)
				}
				out[c] = append(out[c], request{start: start, end: end, err: err})
			}
		}()
	}
	wg.Wait()
	var all []request
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// tally counts a loop's requests as operations and returns the first
// error seen.
func (b *bench) tally(reqs []request) error {
	failed := 0
	var first error
	for _, r := range reqs {
		b.op(r.err)
		if r.err != nil {
			failed++
			if first == nil {
				first = r.err
			}
		}
	}
	if first != nil {
		return fmt.Errorf("%d of %d requests failed, first: %w", failed, len(reqs), first)
	}
	return nil
}

// latencies returns the latencies, in ms, of the requests that succeeded.
func latencies(reqs []request) []float64 {
	var lat []float64
	for _, r := range reqs {
		if r.err == nil {
			lat = append(lat, ms(r.latency()))
		}
	}
	return lat
}

// quietLoop runs a closed loop through quietly: for the window's worth
// of quiet slices, each slice drawing its own query stream.
func (b *bench) quietLoop(ctx context.Context, name string, srv *server, epoch time.Time, conns int, seed int64,
	queries []datagen.Query, window time.Duration, check func(qi int, got []cubelsi.Result) error) (all, kept []request, quiet time.Duration) {
	n := int64(0)
	return quietly(b, name, window, window*3/2, func(until time.Time) []request {
		n++
		return b.closedLoop(ctx, srv, epoch, conns, seed*1000+n, queries, until, check)
	})
}

// searchMetrics fills the search end-to-end metrics from the latencies
// a loop measured in the given (quiet) time.
func (b *bench) searchMetrics(lat []float64, window time.Duration) {
	d := b.timing("search_ms", "ms", lat)
	b.e2e["search_qps"] = float64(len(lat)) / window.Seconds()
	b.e2e["search_p50_ms"] = d.P50
	b.e2e["search_p99_ms"] = pct(lat, 0.99)
}

// visibleMetrics fills the visibility end-to-end metrics.
func (b *bench) visibleMetrics(lat []time.Duration) {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = d.Seconds()
	}
	d := b.timing("visible_s", "s", xs)
	b.e2e["visible_p50_s"] = d.P50
	b.e2e["visible_p90_s"] = pct(xs, 0.9)
}
