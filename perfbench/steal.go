package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on virtual machines whose hypervisor steals CPU in
// bursts: a build that takes 5.2 s on a quiet machine took 9.6 s in a
// run where a quarter of the machine's CPU was stolen, and the served
// p99 of search-wide followed the stolen time from run to run. Such
// stretches measure the host, not the program, so the timed loops set
// them aside and run on until they have collected their quiet time.
const (
	// quietShare is the largest share of the machine's CPU time the
	// hypervisor may steal during a sample for it to count.
	quietShare = 0.05
	// stealEvery is the sampling period of the steal counter.
	stealEvery = 50 * time.Millisecond
	// slice is the length of one quiet-or-not slice of a timed loop.
	slice = time.Second
)

// stealTime is the machine's CPU time stolen by its hypervisor so far
// (the steal column of /proc/stat), or 0 where that is not available.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	first, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(first)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// stealMonitor samples the steal counter in the background so that any
// interval of the run can be judged afterwards.
type stealMonitor struct {
	epoch time.Time
	stop  chan struct{}
	done  chan struct{}

	mu    sync.Mutex
	at    []time.Duration // sample times since epoch
	total []time.Duration // cumulative steal at each sample
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{epoch: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	s := stealTime()
	m.mu.Lock()
	m.at = append(m.at, time.Since(m.epoch))
	m.total = append(m.total, s)
	m.mu.Unlock()
}

// close stops the sampler and waits for it.
func (m *stealMonitor) close() {
	close(m.stop)
	<-m.done
}

// share is the fraction of the machine's CPU time stolen between a and
// b. The interval is widened to the samples around it.
func (m *stealMonitor) share(a, b time.Time) float64 {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	ta, tb := a.Sub(m.epoch), b.Sub(m.epoch)
	i := sort.Search(len(m.at), func(i int) bool { return m.at[i] > ta }) - 1
	j := sort.Search(len(m.at), func(j int) bool { return m.at[j] >= tb })
	i, j = max(i, 0), min(j, len(m.at)-1)
	span := m.at[j] - m.at[i]
	if span <= 0 {
		return 0
	}
	return float64(m.total[j]-m.total[i]) / (float64(span) * float64(runtime.NumCPU()))
}

// stolenSince is the steal counter's growth since the monitor started.
func (m *stealMonitor) stolenSince() time.Duration {
	m.sample()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total[len(m.total)-1] - m.total[0]
}

// quietly runs step in slices of at most one second until the slices
// the hypervisor left quiet add up to want, or limit has passed since
// the start (the timed loops allow 1.5 times want, which bounds a run's
// length on a noisy machine). It returns the results of every slice, the results of the
// quiet ones, and the quiet time. When less than half of want was
// quiet, every slice counts, so a run on a persistently noisy machine
// still reports.
func quietly[T any](b *bench, name string, want, limit time.Duration, step func(until time.Time) []T) (all, kept []T, quiet time.Duration) {
	start := time.Now()
	var total time.Duration
	for quiet < want && time.Since(start) < limit {
		t0 := time.Now()
		res := step(t0.Add(min(slice, want-quiet)))
		t1 := time.Now()
		all = append(all, res...)
		total += t1.Sub(t0)
		if b.steal.share(t0, t1) <= quietShare {
			kept = append(kept, res...)
			quiet += t1.Sub(t0)
		}
	}
	b.quiet[name] = quietReport{Quiet: quiet.Seconds(), Total: total.Seconds()}
	if quiet < want/2 {
		return all, all, total
	}
	return all, kept, quiet
}

// quietRequests keeps the requests that started in the quiet one-second
// slices of [from, to), for a loop that cannot run on (its window is
// shared with a fixed write schedule). It returns them with the quiet
// time, or every request and the whole window when less than half of it
// was quiet.
func (b *bench) quietRequests(name string, reqs []request, epoch, from, to time.Time) ([]request, time.Duration) {
	type span struct{ a, b time.Duration }
	var quiet []span
	var q time.Duration
	for s0 := from; s0.Before(to); s0 = s0.Add(slice) {
		s1 := s0.Add(slice)
		if s1.After(to) {
			s1 = to
		}
		if b.steal.share(s0, s1) <= quietShare {
			quiet = append(quiet, span{s0.Sub(epoch), s1.Sub(epoch)})
			q += s1.Sub(s0)
		}
	}
	total := to.Sub(from)
	b.quiet[name] = quietReport{Quiet: q.Seconds(), Total: total.Seconds()}
	if q < total/2 {
		return reqs, total
	}
	var kept []request
	for _, r := range reqs {
		for _, s := range quiet {
			if r.start >= s.a && r.start < s.b {
				kept = append(kept, r)
				break
			}
		}
	}
	return kept, q
}

// quietReport is how much of a timed loop counted.
type quietReport struct {
	Quiet float64 `json:"quiet_s"`
	Total float64 `json:"total_s"`
}
