// Command perfbench is the repository's benchmark. It runs one named
// workload against the code of the checkout it is built from — the public
// cubelsi API in process and a real cubelsiserve child over loopback
// HTTP — checks the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload build-lastfm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run instead.
// The line before the result is a report with the environment stamp, CPU
// time next to wall time, every timing's sample count and tail, and the
// outcome of each output check. See README.md for the workloads and the
// metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json
// declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them (see README.md for each one's meaning there).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_s", "s"},
	{"ndcg10", "ratio"},
	{"search_qps", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"visible_p50_s", "s"},
	{"visible_p90_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload leaves idle
// reports 0.
var perLayer = []metricDef{
	{"core.tensor_ms", "ms"},
	{"core.decompose_ms", "ms"},
	{"core.embed_ms", "ms"},
	{"core.cluster_ms", "ms"},
	{"core.index_ms", "ms"},
	{"build.wall_s", "s"},
	{"build.cpu_s", "s"},
	{"tucker.sweeps", "count"},
	{"tucker.fit", "ratio"},
	{"tucker.hosvd_init_ms.mode2", "ms"},
	{"tucker.hosvd_init_ms.mode3", "ms"},
	{"tensor.unfold_ms.mode1", "ms"},
	{"tensor.unfold_ms.mode2", "ms"},
	{"tensor.unfold_ms.mode3", "ms"},
	{"mat.gram_ms.mode1", "ms"},
	{"mat.gram_ms.mode2", "ms"},
	{"mat.gram_ms.mode3", "ms"},
	{"mat.eig_ms.mode1", "ms"},
	{"mat.eig_ms.mode2", "ms"},
	{"mat.eig_ms.mode3", "ms"},
	{"core.apply_ms", "ms"},
	{"core.apply_sweeps", "count"},
	{"cubelsi.query_p50_us", "us"},
	{"cubelsi.query_p99_us", "us"},
	{"cubelsi.query_allocs", "count"},
	{"cubelsi.query_bytes", "B"},
	{"ir.rank_p50_us", "us"},
	{"ir.postings_per_query", "count"},
	{"http.search_overhead_us", "us"},
	{"codec.load_ms", "ms"},
	{"codec.load_mapped_ms", "ms"},
	{"ingest.ack_p50_ms", "ms"},
	{"ingest.flush_ms", "ms"},
	{"ingest.flushes", "count"},
	{"ingest.records_per_flush", "count"},
	{"ingest.backpressured", "count"},
	{"ingest.search_p99_in_flush_ms", "ms"},
	{"ingest.search_p99_idle_ms", "ms"},
	{"self_ms.cubelsi", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.tucker", "ms"},
	{"self_ms.tensor", "ms"},
	{"self_ms.mat", "ms"},
	{"self_ms.ir", "ms"},
	{"self_ms.codec", "ms"},
	{"self_ms.http", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"build-lastfm": runBuildLastFM,
	"search-wide":  runSearchWide,
	"ingest-mixed": runIngestMixed,
}

// bench is the state of one run: its arguments, the span recorder, and
// everything the workload measured and checked.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	bin     string // cubelsiserve binary
	dir     string // scratch directory of this run
	rec     *Recorder
	steal   *stealMonitor

	attempted, failed int
	checks            map[string]string // check name → "ok" or what went wrong
	e2e, layers       map[string]float64
	timings           map[string]Dist
	quiet             map[string]quietReport
	serverCPU         time.Duration
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
	}
}

// check records an output check; a failed one also counts as a failed
// operation.
func (b *bench) check(name string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.checks[name] = err.Error()
		return
	}
	if _, seen := b.checks[name]; !seen {
		b.checks[name] = "ok"
	}
}

// timing records a latency distribution for the report.
func (b *bench) timing(name, unit string, xs []float64) Dist {
	d := summarize(xs, unit)
	b.timings[name] = d
	return d
}

func main() {
	workload := flag.String("workload", "", "workload to run: build-lastfm, search-wide or ingest-mixed")
	seed := flag.Int64("seed", 1, "seed every input of the run is derived from")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	bin := flag.String("server", "", "path of the cubelsiserve binary")
	workdir := flag.String("workdir", "", "directory for the run's files")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *bin == "" || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {build-lastfm|search-wide|ingest-mixed}, --seconds ≥ 1, --trace 0|1, -server and -workdir")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, fmt.Sprintf("%s-%d-", *workload, *seed))
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	b := &bench{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		bin: *bin, dir: dir, rec: newRecorder(*trace == 1),
		checks: map[string]string{}, e2e: map[string]float64{}, layers: map[string]float64{},
		timings: map[string]Dist{}, quiet: map[string]quietReport{}, steal: startStealMonitor(),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	start := time.Now()
	if err := run(ctx, b); err != nil {
		os.RemoveAll(dir)
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	wall := time.Since(start)
	stolen := b.steal.stolenSince()
	b.steal.close()

	metrics, err := b.metrics()
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	report := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"env": envStamp(),
		"cpu_s": map[string]float64{
			"wall": wall.Seconds(), "benchmark": cpuSelf().Seconds(), "cubelsiserve": b.serverCPU.Seconds(),
			"stolen": stolen.Seconds(),
		},
		"quiet":   b.quiet,
		"timings": b.timings,
		"checks":  b.checks,
	}
	if b.traced {
		tracePath := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
		if err := b.rec.WriteJSONL(tracePath); err != nil {
			fatal(err)
		}
		report["trace_file"] = tracePath
		report["end_to_end_traced"] = b.e2e
	}
	line(map[string]any{"report": report})
	line(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	})
}

// metrics assembles the result's metric set: every end-to-end metric
// untraced, every per-layer metric traced.
func (b *bench) metrics() (map[string]any, error) {
	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layers
		for layer, v := range LayerSelfMS(b.rec.Spans()) {
			vals["self_ms."+layer] = v
		}
		vals["trace.spans"] = float64(len(b.rec.Spans()))
	}
	out := make(map[string]any, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !b.traced {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not measure %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// envStamp identifies where and on what the numbers were measured.
func envStamp() map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["dirty"] = s.Value == "true"
			}
		}
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func line(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w (the run has a 170 s budget)", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
