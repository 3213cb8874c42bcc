package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/tagging"
)

// The writer's open-loop schedule: ingestBatch held-out adds posted to
// /stream every ingestEvery. At 40 records/s the default flush policy
// (256 records or 2 s) keeps one warm rebuild running back to back.
const (
	ingestBatch = 8
	ingestEvery = 200 * time.Millisecond
	// idlePhase is the read-only stretch before the writer starts: the
	// warm-up, and the reads-without-writes baseline.
	idlePhase = 2 * time.Second
	// statsEvery is the /stats poll period the visibility timeline is
	// rebuilt from; it bounds the timeline's error.
	statsEvery = 25 * time.Millisecond
)

// triple is one assignment, tag already case-folded as the server folds.
type triple struct{ user, tag, resource string }

// splitIngest splits the LastFM preset corpus into a base and a pool of
// held-out adds, and orders the pool by the seed: the write schedule. The
// pool holds exactly the records the schedule posts in a window, so no
// record is offered twice: a re-offered add is a no-op whose flush
// publishes nothing, and later writes would never become visible. A pool
// record is a new assignment among users, tags and resources the base
// keeps well above the cleaning support, so the stream never changes the
// vocabularies or the core size. The split itself does not follow the
// seed: warm-started flushes on a seed-drawn base either converged early
// (about 4.2 s per flush) or ran every sweep (about 6.8 s), by base,
// which split ten seeds' figures into two camps.
func splitIngest(raw *tagging.Dataset, seed int64, window time.Duration) (base, pool []triple) {
	seen := map[triple]bool{}
	var all []triple
	support := map[string]int{}
	for _, a := range raw.Assignments() {
		t := triple{raw.Users.Name(a.User), strings.ToLower(raw.Tags.Name(a.Tag)), raw.Resources.Name(a.Resource)}
		if !seen[t] {
			seen[t] = true
			all = append(all, t)
			support["u"+t.user]++
			support["t"+t.tag]++
			support["r"+t.resource]++
		}
	}
	rand.New(rand.NewSource(0)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	n := ingestBatch * scheduledBatches(window)
	const keep = 4 * 5 // base support left to each entity: 4× the cleaning threshold
	for _, t := range all {
		keys := [3]string{"u" + t.user, "t" + t.tag, "r" + t.resource}
		if len(pool) < n && !strings.HasPrefix(t.tag, "system:") &&
			support[keys[0]] > keep && support[keys[1]] > keep && support[keys[2]] > keep {
			for _, k := range keys {
				support[k]--
			}
			pool = append(pool, t)
			continue
		}
		base = append(base, t)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return base, pool
}

// scheduledBatches is how many batches the writer posts in a window.
func scheduledBatches(window time.Duration) int { return int(window / ingestEvery) }

func dataset(ts ...[]triple) *tagging.Dataset {
	ds := tagging.NewDataset()
	for _, part := range ts {
		for _, t := range part {
			ds.Add(t.user, t.tag, t.resource)
		}
	}
	return ds
}

// runIngestMixed streams held-out adds into a corpus-backed cubelsiserve
// while one closed-loop client searches: warm-started rebuilds (tucker
// through core.Update) share the cores with HTTP reads over a small
// index.
func runIngestMixed(ctx context.Context, b *bench) error {
	cfg := lastfmConfig()
	t0 := time.Now()
	corpus := datagen.Generate(datagen.LastFMLike())
	base, pool := splitIngest(corpus.Raw, b.seed, b.seconds)
	baseTSV := filepath.Join(b.dir, "base.tsv")
	if err := tagging.SaveFile(baseTSV, dataset(base)); err != nil {
		return err
	}
	srv, err := startServer(ctx, b.bin, filepath.Join(b.dir, "server.log"), 1,
		"-data", baseTSV, "-ratio", "20", "-seed", fmt.Sprint(cfg.Seed))
	if err != nil {
		return err
	}
	defer b.stopServer(srv)
	b.e2e["setup_s"] = time.Since(t0).Seconds()
	coldBuild, err := loggedBuild(srv.logPath)
	if err != nil {
		return err
	}
	b.e2e["build_s"] = coldBuild.Seconds()
	queries := corpus.MakeQueries(512, 3, b.seed+1000)
	epoch := time.Now()

	// Reads without writes; a traced run spends the first half untraced.
	var untraced []request
	if b.traced {
		b.rec.setEnabled(false)
		untraced = b.closedLoop(ctx, srv, epoch, 1, b.seed+7, queries, time.Now().Add(idlePhase/2), nil)
		b.rec.setEnabled(true)
		if err := b.tally(untraced); err != nil {
			return err
		}
	}
	idle := b.closedLoop(ctx, srv, epoch, 1, b.seed+8, queries, time.Now().Add(idlePhase), nil)
	if err := b.tally(idle); err != nil {
		return err
	}
	idleLat := latencies(idle)

	// Writes beside reads, with the /stats poller recording the timeline.
	pollCtx, stopPoll := context.WithCancel(ctx)
	var polls []StatsPoll
	var pollErr error
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		polls, pollErr = pollStats(pollCtx, b, srv, epoch)
	}()
	measured := time.Now()
	until := measured.Add(b.seconds)
	var acks []time.Duration
	var ackLat, lateness []float64
	var accepted []triple
	var readReqs []request
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readReqs = b.closedLoop(ctx, srv, epoch, 1, b.seed, queries, until, nil)
	}()
	var writeErr error
	for k := range scheduledBatches(b.seconds) {
		due := measured.Add(time.Duration(k) * ingestEvery)
		select {
		case <-time.After(time.Until(due)):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		lateness = append(lateness, ms(time.Since(due)))
		batch := pool[k*ingestBatch : (k+1)*ingestBatch]
		n, err := postBatch(ctx, b, srv, batch)
		b.op(err)
		if err != nil && writeErr == nil {
			writeErr = err
		}
		ack := time.Since(epoch)
		ackLat = append(ackLat, ms(time.Since(due)))
		for range n {
			acks = append(acks, ack)
		}
		accepted = append(accepted, batch[:n]...)
	}
	wg.Wait()
	window := time.Since(measured)
	b.checks["stream posts"] = errString(writeErr)

	// Drain: a forced flush returns once everything accepted is applied.
	sp := b.rec.Begin("http.stream", Ref{})
	err = srv.post(ctx, "/stream?flush=1", "application/x-ndjson", nil, nil)
	b.rec.End(sp)
	b.check("drain flush", err)
	drained := time.Since(epoch)
	stopPoll()
	pollWG.Wait()
	if pollErr != nil && !errors.Is(pollErr, context.Canceled) {
		return pollErr
	}
	// The drain's snapshot was published before its answer arrived; the
	// poller may not have seen it yet, so the final state closes the
	// timeline at the answer's time.
	st, err := srv.stats(ctx)
	if err != nil {
		return err
	}
	if st.Stream == nil {
		return errors.New("no stream section in /stats")
	}
	at := drained
	if n := len(polls); n > 0 {
		at = max(at, polls[n-1].At)
	}
	polls = append(polls, StatsPoll{At: at, Version: st.ModelVersion,
		Flushes: st.Stream.Flushes, LastFlushMS: st.Stream.LastFlushMS})

	b.checks["searches during writes"] = errString(b.tally(readReqs))
	quietReads, quiet := b.quietRequests("search", readReqs, epoch, measured, measured.Add(window))
	b.searchMetrics(latencies(quietReads), quiet)

	pubs := Timeline(polls)
	lat, unseen := b.quietVisibility(acks, pubs, epoch)
	b.check("every accepted write became visible", func() error {
		if unseen > 0 {
			return fmt.Errorf("%d of %d accepted writes in no observed snapshot", unseen, len(acks))
		}
		return nil
	}())
	if len(lat) == 0 {
		return errors.New("no write became visible")
	}
	b.visibleMetrics(lat)
	flushMS := make([]float64, len(pubs))
	for i, p := range pubs {
		flushMS[i] = ms(p.Took)
	}
	b.timing("flush_ms", "ms", flushMS)
	b.timing("ack_ms", "ms", ackLat)
	b.timing("writer_lateness_ms", "ms", lateness)

	// The served corpus is the base plus the distinct accepted adds, and
	// no flush failed or dropped records.
	wantAssign := cleanOf(dataset(base, accepted), cfg).Stats().Assignments
	b.check("served assignments = base + accepted adds", func() error {
		if st.Assignments != wantAssign {
			return fmt.Errorf("served %d assignments, want %d", st.Assignments, wantAssign)
		}
		if st.Stream.FlushErrors != 0 || st.Stream.Dropped != 0 {
			return fmt.Errorf("flush_errors %d, dropped %d", st.Stream.FlushErrors, st.Stream.Dropped)
		}
		return nil
	}())

	// ndcg10 of the final served model.
	var ndcg float64
	for _, q := range queries {
		got, err := srv.search(ctx, q.Tags, 10)
		b.op(err)
		ndcg += ndcg10Of(corpus, q, got)
	}
	b.e2e["ndcg10"] = ndcg / float64(len(queries))

	if err := b.stopServer(srv); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	b.overhead(latencies(untraced), idleLat)
	b.layers["ingest.ack_p50_ms"] = median(ackLat)
	b.layers["ingest.flush_ms"] = median(flushMS)
	b.layers["ingest.flushes"] = float64(len(pubs))
	b.layers["ingest.records_per_flush"] = float64(len(accepted)) / float64(len(pubs))
	b.layers["ingest.backpressured"] = float64(st.Stream.Backpressured)
	var inFlush []float64
	for _, r := range readReqs {
		for _, p := range pubs {
			if r.err == nil && r.end > p.Start() && r.start < p.At {
				inFlush = append(inFlush, ms(r.latency()))
				break
			}
		}
	}
	b.timing("search_in_flush_ms", "ms", inFlush)
	b.layers["ingest.search_p99_in_flush_ms"] = pct(inFlush, 0.99)
	b.layers["ingest.search_p99_idle_ms"] = pct(idleLat, 0.99)

	// In process: the same cold build the server ran, then one Apply of
	// a flush-sized delta of held-out adds.
	var idx *cubelsi.Index
	bs, err := b.build("cubelsi.NewIndex", func(opts ...cubelsi.BuildOption) (*cubelsi.Engine, error) {
		var err error
		idx, err = cubelsi.NewIndex(ctx, cubelsi.FromDataset(dataset(base)), append(opts, cubelsi.WithConfig(cfg))...)
		if err != nil {
			return nil, err
		}
		return idx.Snapshot(), nil
	})
	if err != nil {
		return err
	}
	b.buildLayers(bs)
	var delta cubelsi.Delta
	for _, t := range pool[:max(1, len(accepted)/len(pubs))] {
		delta.Add = append(delta.Add, cubelsi.Assignment{User: t.user, Tag: t.tag, Resource: t.resource})
	}
	sp = b.rec.Begin("cubelsi.Apply", Ref{})
	t1 := time.Now()
	rep, err := idx.Apply(ctx, delta)
	applied := time.Since(t1)
	b.rec.End(sp)
	if err != nil {
		return err
	}
	b.layers["core.apply_ms"] = ms(applied)
	b.layers["core.apply_sweeps"] = float64(rep.Sweeps)
	inproc, err := b.serveLayers(idx.Snapshot(), "", queries)
	if err != nil {
		return err
	}
	b.layers["http.search_overhead_us"] = 1000*median(idleLat) - inproc
	b.replaySweep(cleanOf(dataset(base), cfg), bs.eng.Stats().CoreDims, uint64(cfg.Seed))
	return nil
}

// postBatch posts records as one NDJSON /stream request and returns how
// many the server accepted.
func postBatch(ctx context.Context, b *bench, srv *server, batch []triple) (int, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, t := range batch {
		if err := enc.Encode(cubelsi.StreamRecord{User: t.user, Tag: t.tag, Resource: t.resource}); err != nil {
			return 0, err
		}
	}
	var sum struct {
		Accepted   int    `json:"accepted"`
		Duplicates int    `json:"duplicates"`
		Error      string `json:"error"`
	}
	sp := b.rec.Begin("http.stream", Ref{})
	err := srv.post(ctx, "/stream", "application/x-ndjson", body.Bytes(), &sum)
	b.rec.End(sp)
	if err != nil {
		return 0, err
	}
	if sum.Accepted != len(batch) {
		return sum.Accepted, fmt.Errorf("stream accepted %d of %d records (%d duplicates): %s", sum.Accepted, len(batch), sum.Duplicates, sum.Error)
	}
	return sum.Accepted, nil
}

// pollStats samples GET /stats every statsEvery until ctx ends.
func pollStats(ctx context.Context, b *bench, srv *server, epoch time.Time) ([]StatsPoll, error) {
	var polls []StatsPoll
	tick := time.NewTicker(statsEvery)
	defer tick.Stop()
	for {
		sp := b.rec.Begin("http.stats", Ref{})
		st, err := srv.stats(ctx)
		b.rec.End(sp)
		if err != nil {
			return polls, err
		}
		if st.Stream == nil {
			return polls, errors.New("no stream section in /stats")
		}
		polls = append(polls, StatsPoll{At: time.Since(epoch), Version: st.ModelVersion,
			Flushes: st.Stream.Flushes, LastFlushMS: st.Stream.LastFlushMS})
		select {
		case <-ctx.Done():
			return polls, ctx.Err()
		case <-tick.C:
		}
	}
}

// stageLine matches the stage timings cubelsiserve -data logs while it
// builds its initial model.
var stageLine = regexp.MustCompile(`(?m)^build: stage \S+ +done in (\S+)$`)

// loggedBuild sums the start-up build's stage times from the server log.
func loggedBuild(logPath string) (time.Duration, error) {
	raw, err := os.ReadFile(logPath)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	m := stageLine.FindAllSubmatch(raw, -1)
	for _, g := range m {
		d, err := time.ParseDuration(string(g[1]))
		if err != nil {
			return 0, fmt.Errorf("server log: %w", err)
		}
		total += d
	}
	if len(m) != 5 {
		return 0, fmt.Errorf("server log has %d build stage lines, want 5", len(m))
	}
	return total, nil
}

// quietVisibility is Visibility over the writes whose whole wait, from
// acknowledgment to publication, the hypervisor left quiet (every write
// when less than half of them were).
func (b *bench) quietVisibility(acks []time.Duration, pubs []Publication, epoch time.Time) (lat []time.Duration, unseen int) {
	var all []time.Duration
	var quietS, totalS float64
	for _, a := range acks {
		l, u := Visibility([]time.Duration{a}, pubs)
		if u > 0 {
			unseen++
			continue
		}
		all = append(all, l[0])
		totalS += l[0].Seconds()
		if b.steal.share(epoch.Add(a), epoch.Add(a+l[0])) <= quietShare {
			lat = append(lat, l[0])
			quietS += l[0].Seconds()
		}
	}
	b.quiet["visible"] = quietReport{Quiet: quietS, Total: totalS}
	if len(lat) < len(all)/2 {
		return all, unseen
	}
	return lat, unseen
}
