// Command perfbench is GraphM's end-to-end benchmark. It stands up the
// graphm-serve daemon in-process on a loopback port, drives one workload
// over HTTP, checks the daemon's outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
// the end-to-end metrics with -trace 0, the per-layer metrics of a traced
// run with -trace 1. See README.md for the workloads and metrics.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload burst-inmem --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name    string
	dataset string
	jobs    int  // burst size, all due at once
	durable bool // fresh fsync'd store plus lane B's evolve stream
}

var workloads = []workload{
	{name: "burst-inmem", dataset: "twitter", jobs: 112},
	{name: "burst-ooc", dataset: "uk-union", jobs: 42},
	{name: "evolve-durable", dataset: "twitter", jobs: 112, durable: true},
}

// metricDef names one reported metric. gate marks the end-to-end metrics
// the JSON result carries (and BENCHMARK.json bounds); the others are
// printed for the workloads they apply to.
type metricDef struct {
	name, unit string
	gate       bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", gate: true},
	{name: "jobs_per_s", unit: "jobs/s", gate: true},
	{name: "job_latency_p50_s", unit: "s", gate: true},
	{name: "job_latency_p95_s", unit: "s", gate: true},
	{name: "job_runtime_p50_s", unit: "s", gate: true},
	{name: "job_runtime_p95_s", unit: "s", gate: true},
	{name: "evolve_ack_p50_s", unit: "s"},
	{name: "evolve_ack_p99_s", unit: "s"},
	{name: "failed_frac", unit: "ratio"},
	{name: "peak_rss_mb", unit: "MB", gate: true},
	{name: "sim_job_s_p50", unit: "sim_s", gate: true},
	{name: "sim_disk_mb_per_job", unit: "sim_MB", gate: true},
	{name: "sim_llc_miss_rate", unit: "ratio", gate: true},
	{name: "stored_bytes_per_user_byte", unit: "ratio"},
}

var perLayer = []metricDef{
	{name: "server.submit_rtt_p50_s", unit: "s"},
	{name: "server.submit_rtt_p99_s", unit: "s"},
	{name: "server.evolve_rtt_p50_s", unit: "s"},
	{name: "server.evolve_rtt_p99_s", unit: "s"},
	{name: "server.non2xx", unit: "count"},
	{name: "service.queue_wait_p50_s", unit: "s"},
	{name: "service.queue_wait_p95_s", unit: "s"},
	{name: "service.peak_in_flight", unit: "count"},
	{name: "service.peak_queued", unit: "count"},
	{name: "service.ticketlog_submit_p50_s", unit: "s"},
	{name: "service.ticketlog_submit_p99_s", unit: "s"},
	{name: "core.begin_frac", unit: "ratio"},
	{name: "core.sharing_frac", unit: "ratio"},
	{name: "core.stream_frac", unit: "ratio"},
	{name: "core.end_frac", unit: "ratio"},
	{name: "core.residual_frac", unit: "ratio"},
	{name: "core.rounds", unit: "count"},
	{name: "core.shared_loads", unit: "count"},
	{name: "core.suspensions", unit: "count"},
	{name: "core.mid_round_joins", unit: "count"},
	{name: "core.shared_load_frac", unit: "ratio"},
	{name: "core.loads_per_disk_read", unit: "ratio"},
	{name: "engine.scanned_edges", unit: "count"},
	{name: "engine.processed_edges", unit: "count"},
	{name: "engine.useful_edge_frac", unit: "ratio"},
	{name: "engine.iterations", unit: "count"},
	{name: "engine.sim_io_frac", unit: "ratio"},
	{name: "memsim.llc_hits", unit: "count"},
	{name: "memsim.llc_misses", unit: "count"},
	{name: "process.cpu_s_per_job", unit: "s"},
	{name: "process.cpu_ns_per_scanned_edge", unit: "ns"},
	{name: "runtime.idle_cpu_frac", unit: "ratio"},
	{name: "runtime.gc_cpu_frac", unit: "ratio"},
	{name: "runtime.sched_latency_p99_s", unit: "s"},
	{name: "runtime.mutex_wait_s", unit: "s"},
	{name: "runtime.alloc_mb_per_job", unit: "MB"},
	{name: "storage.disk_read_ops", unit: "count"},
	{name: "storage.disk_read_mb", unit: "sim_MB"},
	{name: "storage.mem_faults", unit: "count"},
	{name: "storage.mem_rehits", unit: "count"},
	{name: "storage.mem_evictions", unit: "count"},
	{name: "storage.mem_peak_mb", unit: "sim_MB"},
	{name: "storage.wal_commit_p50_s", unit: "s"},
	{name: "storage.wal_commit_p99_s", unit: "s"},
	{name: "storage.checkpoint_s", unit: "s"},
	{name: "storage.wal_appends", unit: "count"},
	{name: "storage.wal_syncs", unit: "count"},
	{name: "storage.wal_appends_per_sync", unit: "ratio"},
	{name: "storage.wal_bytes", unit: "bytes"},
	{name: "storage.checkpoints", unit: "count"},
	{name: "storage.housekeeping_checkpoints", unit: "count"},
	{name: "storage.ticketlog_dropped", unit: "count"},
	{name: "loadgen.late_p99_s", unit: "s"},
	{name: "loadgen.late_max_s", unit: "s"},
	{name: "loadgen.sent", unit: "count"},
	{name: "trace.overhead_frac", unit: "ratio"},
	{name: "host.steal_frac", unit: "ratio"},
}

// hardLimit bounds a whole run: a burst that hangs fails the run instead of
// stalling the caller.
const hardLimit = 170 * time.Second

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: burst-inmem, burst-ooc or evolve-durable")
		seed    = flag.Int64("seed", 1, "workload seed: every request is generated from it")
		secs    = flag.Int("seconds", 30, "how long to measure; whole bursts repeat until it has passed")
		traceOn = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		workDir = flag.String("workdir", ".bench_build", "directory for data directories and span dumps")
	)
	flag.Parse()
	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" {
		fatalf("unknown workload %q", *name)
	}
	if *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	time.AfterFunc(hardLimit, func() { fatalf("run exceeded %v", hardLimit) })

	res, err := run(w, *seed, time.Duration(*secs)*time.Second, *traceOn == 1, *workDir)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// run repeats whole repetitions (set-up, burst, checks) until the measuring
// time has passed, then folds them into one figure per metric. A traced run
// alternates untraced and traced repetitions: the per-layer metrics come
// from the traced ones, and the two sides' throughput gives the tracing
// overhead.
func run(w workload, seed int64, measure time.Duration, traced bool, workDir string) (resultJSON, error) {
	start := time.Now()
	var reps []*repResult
	for i := 0; ; i++ {
		tracedRep := traced && i%2 == 1
		r, err := runRep(w, seed, i, tracedRep, workDir)
		if err != nil {
			return resultJSON{}, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		reps = append(reps, r)
		lat, rt := r.samples["job_latency"], r.samples["job_runtime"]
		fmt.Printf("rep %d traced=%v: setup %.4fs, %.3f jobs/s, latency p50 %.3fs p95 %.3fs, runtime p50 %.3fs p95 %.3fs, %d ops, %d failed, %.0f housekeeping checkpoints, steal %.1f%%\n",
			i, r.traced, r.metrics["setup_s"], r.metrics["jobs_per_s"], quantile(lat, 0.5), quantile(lat, 0.95),
			quantile(rt, 0.5), quantile(rt, 0.95), r.attempted, r.failed, r.metrics["storage.housekeeping_checkpoints"],
			100*r.metrics["host.steal_frac"])
		minReps := 3
		if traced {
			minReps = 2
		}
		if len(reps) >= minReps && time.Since(start) >= measure && (traced || tailsFilled(reps)) {
			break
		}
	}

	res := resultJSON{Metrics: map[string]metricJSON{}}
	var problems []string
	var plain, tracedReps []*repResult
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		problems = append(problems, r.problems...)
		if r.traced {
			tracedReps = append(tracedReps, r)
		} else {
			plain = append(plain, r)
		}
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}

	e2e := fold(plain)
	e2e["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	fmt.Printf("workload %s: %d repetitions of a %d-job burst (%d traced), %d operations, %d failed\n",
		w.name, len(reps), w.jobs, len(tracedReps), res.Attempted, res.Failed)
	printTable("end-to-end (untraced repetitions)", endToEnd, e2e)

	if !traced {
		for _, d := range endToEnd {
			if d.gate {
				res.Metrics[d.name] = metricJSON{Value: e2e[d.name], Unit: d.unit}
			}
		}
		return res, nil
	}
	layer := fold(tracedReps)
	layer["trace.overhead_frac"] = 1 - ratio(layer["jobs_per_s"], e2e["jobs_per_s"])
	printTable("per-layer (traced repetitions)", perLayer, layer)
	for _, d := range perLayer {
		res.Metrics[d.name] = metricJSON{Value: layer[d.name], Unit: d.unit}
	}
	var spans []span
	for _, r := range tracedReps {
		spans = append(spans, r.spans...)
	}
	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, seed))
	if err := writeSpans(path, start, spans); err != nil {
		return resultJSON{}, err
	}
	fmt.Printf("wrote %d spans to %s\n", len(spans), path)
	return res, nil
}

// minTail is how many pooled samples an untraced run keeps beyond the rank
// of each gated percentile: it repeats until its repetitions hold that many.
const minTail = 10

// tailsFilled reports whether the untraced repetitions pool at least minTail
// samples beyond the rank of every gated end-to-end percentile.
func tailsFilled(reps []*repResult) bool {
	n := map[string]int{}
	for _, r := range reps {
		if !r.traced {
			for k, xs := range r.samples {
				n[k] += len(xs)
			}
		}
	}
	for _, p := range pooledQuantiles {
		if p.gated && beyondRank(n[p.series], p.q) < minTail {
			return false
		}
	}
	return true
}

// beyondRank is how many of n sorted samples lie above the q-quantile's
// nearest rank (the rule of slo.Percentile).
func beyondRank(n int, q float64) int {
	return n - int(q*float64(n)+0.5)
}

// pooledQuantiles are the percentile metrics taken over the samples of all
// folded repetitions together; gated marks those the --trace 0 result
// carries.
var pooledQuantiles = []struct {
	metric, series string
	q              float64
	gated          bool
}{
	{"job_latency_p50_s", "job_latency", 0.50, true},
	{"job_latency_p95_s", "job_latency", 0.95, true},
	{"job_runtime_p50_s", "job_runtime", 0.50, true},
	{"job_runtime_p95_s", "job_runtime", 0.95, true},
	{"sim_job_s_p50", "sim_job", 0.50, true},
	{"evolve_ack_p50_s", "evolve_ack", 0.50, false},
	{"evolve_ack_p99_s", "evolve_ack", 0.99, false},
	{"server.submit_rtt_p50_s", "submit_rtt", 0.50, false},
	{"server.submit_rtt_p99_s", "submit_rtt", 0.99, false},
	{"server.evolve_rtt_p50_s", "evolve_rtt", 0.50, false},
	{"server.evolve_rtt_p99_s", "evolve_rtt", 0.99, false},
	{"service.queue_wait_p50_s", "queue_wait", 0.50, false},
	{"service.queue_wait_p95_s", "queue_wait", 0.95, false},
	{"service.ticketlog_submit_p50_s", "ticketlog_submit", 0.50, false},
	{"service.ticketlog_submit_p99_s", "ticketlog_submit", 0.99, false},
	{"storage.wal_commit_p50_s", "wal_commit", 0.50, false},
	{"storage.wal_commit_p99_s", "wal_commit", 0.99, false},
	{"loadgen.late_p99_s", "late", 0.99, false},
	{"loadgen.late_max_s", "late", 1, false},
}

// fold folds repetitions into one figure per metric: the pooled quantile
// for the percentile metrics, the median across repetitions for the rest.
func fold(reps []*repResult) map[string]float64 {
	vals := map[string][]float64{}
	series := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.metrics {
			vals[k] = append(vals[k], v)
		}
		for k, xs := range r.samples {
			series[k] = append(series[k], xs...)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	for _, p := range pooledQuantiles {
		if xs := series[p.series]; len(xs) > 0 {
			out[p.metric] = quantile(xs, p.q)
		}
	}
	return out
}

// printTable prints the metrics of defs that the run measured.
func printTable(title string, defs []metricDef, vals map[string]float64) {
	fmt.Println(title + ":")
	var lines []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			continue
		}
		lines = append(lines, fmt.Sprintf("  %-34s %14.6g %s", d.name, v, d.unit))
	}
	fmt.Println(strings.Join(lines, "\n"))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
