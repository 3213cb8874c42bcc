package main

import (
	"sort"
	"time"
)

// StatsPoll is one sample of the writer's GET /stats, stamped with the
// benchmark clock when its response arrived.
type StatsPoll struct {
	At          time.Duration
	Version     uint64
	Flushes     uint64
	LastFlushMS float64
}

// Publication is one published model snapshot: At is when the benchmark
// first saw it served, Took how long the rebuild behind it ran, so the
// rebuild started at At − Took.
type Publication struct {
	At, Took time.Duration
}

// Start is when the rebuild behind the publication began — the moment
// the ingestor stole its pending batch.
func (p Publication) Start() time.Duration { return p.At - p.Took }

// Timeline rebuilds the publications from a /stats poll series. A flush
// publishes by bumping model_version; its duration lands in
// stream.last_flush_ms together with a stream.flushes increment, which
// may show up one poll later than the version (the server publishes the
// snapshot before it updates the ingest counters). Flushes that publish
// nothing (every change already present) bump flushes alone and are
// skipped.
func Timeline(polls []StatsPoll) []Publication {
	if len(polls) == 0 {
		return nil
	}
	var pubs []Publication
	lastV, lastF := polls[0].Version, polls[0].Flushes
	waiting := -1 // publication still missing its duration
	for _, p := range polls[1:] {
		if p.Version > lastV {
			pubs = append(pubs, Publication{At: p.At})
			waiting = len(pubs) - 1
			lastV = p.Version
		}
		if p.Flushes > lastF {
			lastF = p.Flushes
			if waiting >= 0 {
				pubs[waiting].Took = time.Duration(p.LastFlushMS * float64(time.Millisecond))
				waiting = -1
			}
		}
	}
	if waiting >= 0 {
		pubs = pubs[:waiting] // duration never observed
	}
	return pubs
}

// Visibility returns, for every acknowledged write, the time from its
// acknowledgment to the publication of the first snapshot that contains
// it, and the number of writes no observed snapshot contains. A write
// acknowledged at a is in the first rebuild that started at or after a:
// the ingestor steals the whole pending batch when a flush starts, and a
// write is pending once acknowledged.
func Visibility(acks []time.Duration, pubs []Publication) (lat []time.Duration, unseen int) {
	ps := append([]Publication(nil), pubs...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Start() < ps[j].Start() })
	for _, a := range acks {
		i := sort.Search(len(ps), func(i int) bool { return ps[i].Start() >= a })
		if i == len(ps) {
			unseen++
			continue
		}
		lat = append(lat, ps[i].At-a)
	}
	return lat, unseen
}
