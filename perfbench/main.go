// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the public entry points of InSiPS, checks the
// outputs, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	perfbench -workload design-k25 -seed 1 -seconds 20 -trace 0
//
// Workloads:
//
//   - design-k25: core.Designer on the in-process pool, 25 non-targets.
//   - netcluster-k2: core.Designer over evalbackend.NewMaster with two
//     loopback netcluster workers, 2 non-targets.
//   - service-mix: a cmd/insipsd process with a durable job store, fed a
//     closed batch of design jobs and an open-loop /v1/score stream.
//
// With -trace 0 the end-to-end metrics are printed; with -trace 1 the
// workload runs once untraced and once traced, and the per-layer
// breakdown is printed instead. A human-readable summary goes to
// standard error. The exit code is non-zero when an output check fails.
// perfbench/run.sh builds this command and cmd/insipsd and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s: set-up is timed from process start.
var processStart = time.Now()

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds int
	trace   bool
	tiny    bool   // smoke-test size (tests only): a small proteome and a few generations
	insipsd string // path of the cmd/insipsd binary (service-mix)
	work    string // scratch directory for journals, stores and traces
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main: the result line plus
// human-readable notes (shape, check results, bases of ratios).
type outcome struct {
	report
	problems []string // failed output checks
	notes    []string
}

func (o *outcome) set(name, unit string, v float64) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check; it also counts as a failed
// operation.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	o.Failed++
}

// declared is a metric name with its unit, as BENCHMARK.json lists it.
type declared struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// all of them.
var endToEnd = []declared{
	{"setup_s", "s"}, {"gens_per_s", "1/s"}, {"score_p50_ms", "ms"}, {"score_p90_ms", "ms"},
	{"job_turnaround_s", "s"}, {"jobs_per_s", "1/s"}, {"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = []declared{
	{"search.self_ms", "ms"}, {"search.ga_ops_ms", "ms"},
	{"evalbackend.cache_hit_ratio", "ratio"}, {"evalbackend.candidates", "count"}, {"evalbackend.chain_self_ms", "ms"},
	{"cluster.round_ms", "ms"}, {"cluster.candidates", "count"},
	{"pipe.score_busy_ms", "ms"}, {"pipe.pairs", "count"}, {"pipe.pairs_per_s", "1/s"},
	{"simindex.preprocess_ms", "ms"}, {"simindex.wincache_hit_ratio", "ratio"}, {"simindex.wincache_lookups", "count"},
	{"simindex.wincache_evicted", "count"}, {"simindex.delta_ratio", "ratio"},
	{"obs.checkpoint_ms", "ms"}, {"obs.journal_bytes_per_gen", "B"},
	{"netcluster.round_ms", "ms"}, {"netcluster.task_service_ms", "ms"}, {"netcluster.tasks_reissued", "count"},
	{"netcluster.leases_expired", "count"}, {"netcluster.ready_s", "s"},
	{"server.score_kernel_ms", "ms"}, {"server.http_overhead_ms", "ms"}, {"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"}, {"server.job_run_s", "s"},
	{"loadgen.late_ms_max", "ms"}, {"loadgen.sent", "count"}, {"loadgen.failed", "count"},
	{"trace.gens_per_s_untraced", "1/s"}, {"trace.gens_per_s_traced", "1/s"}, {"trace.gens_per_s_ratio", "ratio"},
	{"trace.unattributed_ms", "ms"}, {"trace.unattributed_share", "ratio"},
}

// finalize keeps exactly the declared metrics of the run's mode. A
// per-layer metric the workload did not reach reads 0; a missing
// end-to-end metric is a bug.
func finalize(out *outcome, trace bool) error {
	list := endToEnd
	if trace {
		list = perLayer
	}
	got := out.Metrics
	out.Metrics = map[string]metric{}
	for _, d := range list {
		m, ok := got[d.name]
		switch {
		case ok && m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %s, declared %s", d.name, m.Unit, d.unit)
		case !ok && !trace:
			return fmt.Errorf("workload did not report %s", d.name)
		case !ok:
			m = metric{Unit: d.unit}
		}
		out.Metrics[d.name] = m
	}
	return nil
}

var workloads = map[string]func(config) (*outcome, error){
	"design-k25":    runDesignK25,
	"netcluster-k2": runNetclusterK2,
	"service-mix":   runServiceMix,
}

func main() {
	var (
		cfg      config
		workload string
		trace    int
	)
	flag.StringVar(&workload, "workload", "", "workload to run: design-k25, netcluster-k2 or service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal measured seconds (sets the amount of work)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.insipsd, "insipsd", ".bench_build/insipsd", "cmd/insipsd binary (service-mix)")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		os.Exit(1)
	}
	if err := finalize(out, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		os.Exit(1)
	}
	out.Correct = len(out.problems) == 0
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	printSummary(workload, cfg, out)
	line, err := json.Marshal(out.report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSummary writes the human-readable report: machine, shape, every
// metric with its unit, failed_ratio, and any failed checks.
func printSummary(workload string, cfg config, out *outcome) {
	w := os.Stderr
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %t\n", workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "machine  nproc %d  GOMAXPROCS %d  %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-32s %14.4f ratio (%d of %d operations)\n", "failed_ratio",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	for _, p := range out.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}
