// Command perfbench is the benchmark of record for the DiffCode and
// CryptoChecker reproduction. It drives the shipped programs (evalrepro,
// diffcoded, diffcode) the way users run them, checks their outputs, and
// prints one JSON result line:
//
//	perfbench -workload paper-eval|serve-check|mine-rerun -seed N -seconds S -trace 0|1
//
// It runs from the root of a checkout and finds the built programs in
// .bench_build/bin.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it makes a
// separate traced run that times the calls into each layer from this
// package and reports the per-layer metrics. run.py builds the programs and
// this command from source and forwards its flags; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"capacity_rps", "1/s"},
}

// perLayer lists the metrics a -trace 1 run reports. A layer the workload
// never enters reads 0.
var perLayer = []metricDef{
	{"core.mine_s", "s"}, {"core.figure6_s", "s"}, {"core.figure7_s", "s"},
	{"core.figure8_s", "s"}, {"core.figure10_s", "s"}, {"core.elicit_s", "s"},
	{"core.headline_s", "s"}, {"core.unattributed_s", "s"},
	{"trace.wall_s", "s"}, {"trace.overhead_s", "s"},
	{"corpus.generate_s", "s"}, {"corpus.load_s", "s"},
	{"mining.collect_s", "s"}, {"mining.changes", "count"},
	{"javatok.busy_s", "s"}, {"javatok.tokens", "count"}, {"javatok.mb_per_s", "MB/s"},
	{"javaparser.busy_s", "s"}, {"javaparser.files", "count"}, {"javaparser.alloc_mb", "MB"},
	{"analysis.busy_s", "s"}, {"analysis.runs", "count"}, {"analysis.alloc_mb", "MB"},
	{"summary.hits", "count"}, {"summary.misses", "count"},
	{"usage.busy_s", "s"}, {"usage.graphs", "count"},
	{"change.extract_s", "s"}, {"change.usage_changes", "count"},
	{"change.filter_s", "s"}, {"change.survivor_ratio", "ratio"},
	{"cluster.busy_s", "s"}, {"cluster.pairs", "count"}, {"distcache.hit_ratio", "ratio"},
	{"rules.busy_s", "s"}, {"rules.evaluations", "count"},
	{"rules.tp", "count"}, {"rules.fp", "count"}, {"rules.tn", "count"}, {"rules.fn", "count"},
	{"witness.busy_s", "s"}, {"witness.traces", "count"},
	{"checker.service_p50_ms", "ms"}, {"checker.service_p99_ms", "ms"},
	{"serve.overhead_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.shed", "count"},
	{"artifact.hit_ratio", "ratio"}, {"artifact.read_mb", "MB"},
	{"artifact.written_mb", "MB"}, {"artifact.store_mb", "MB"},
	{"gc.cpu_share", "ratio"}, {"heap.peak_mb", "MB"}, {"alloc_mb", "MB"},
	{"gen.late_ms", "ms"},
}

// result is what one workload run measured and checked.
type result struct {
	attempted int
	failed    int
	// problems lists correctness gates that failed (besides failed
	// operations, which also land here with their reason).
	problems []string
	values   map[string]float64
	samples  map[string]int // sample count behind a value, where > 1
	notes    []string       // extra lines for the human-readable table
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

// show adds a metric to the human-readable table only; the JSON result
// line carries exactly the metrics BENCHMARK.json names.
func (r *result) show(name string, v float64, unit string, n int) {
	r.notes = append(r.notes, fmt.Sprintf("%-24s %14.6g %-6s n=%d (printed only)", name, v, unit, n))
}

// fail records a failed operation or gate.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

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

// workloads maps a workload name to its untraced and traced runs.
var workloads = map[string]struct {
	measure func(e *env, seed int64, seconds int) (*result, error)
	trace   func(e *env, seed int64, seconds int, t *tracer) (*result, error)
}{
	"paper-eval":  {measurePaper, tracePaper},
	"serve-check": {measureServe, traceServe},
	"mine-rerun":  {measureMine, traceMine},
}

// runDeadline keeps every run, children included, inside the 180 s a
// benchmark run may take.
const runDeadline = 165 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload: paper-eval, serve-check or mine-rerun")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "how long the timed phase measures")
		traced   = flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
		record   = flag.Bool("record", false, "rewrite the expected outputs under perfbench/testdata instead of measuring")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	// A terminated benchmark stops its programs too: cancelling ctx kills
	// every child process still running.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, runDeadline)
	defer cancel()
	work := filepath.Join(root, ".bench_build", "work")
	e := &env{
		ctx:      ctx,
		bin:      filepath.Join(root, ".bench_build", "bin"),
		root:     root,
		size:     paperSize,
		mineSize: mineSize,
		testdata: filepath.Join(root, "perfbench", "testdata"),
	}
	if *record {
		e.ctx = sigCtx
		e.work = filepath.Join(work, "record")
		if err := recordExpected(e); err != nil {
			fatal(err)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload paper-eval|serve-check|mine-rerun -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	out, lines, err := runWorkload(e, *workload, *seed, *seconds, *traced == 1, work)
	if err != nil {
		fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// runWorkload makes one run of a workload in a fresh scratch directory
// under work and returns its result line and a human-readable table. A
// traced run also writes its spans under work/spans.
func runWorkload(e *env, workload string, seed int64, seconds int, traced bool, work string) (resultJSON, []string, error) {
	w := workloads[workload]
	e.work = filepath.Join(work, workload)
	if err := clearDir(e.work); err != nil {
		return resultJSON{}, nil, err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return resultJSON{}, nil, err
	}
	defer clearDir(e.work)
	var (
		res *result
		err error
	)
	defs := endToEnd
	if traced {
		defs = perLayer
		t := newTracer(fmt.Sprintf("%s-seed%d", workload, seed))
		res, err = w.trace(e, seed, seconds, t)
		if err == nil {
			err = t.write(filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.json", workload, seed)))
		}
	} else {
		res, err = w.measure(e, seed, seconds)
	}
	if err != nil {
		return resultJSON{}, nil, err
	}
	return resultLine(res, defs, traced)
}

// clearDir deletes dir and waits until the disk has absorbed the deletion.
// The checkout's file system may discard freed blocks at each journal
// commit, which stalls the file writes after it by seconds; syncing here
// keeps that cost out of the next measurement and the next run.
func clearDir(dir string) error {
	err := os.RemoveAll(dir)
	syscall.Sync()
	return err
}

// resultLine turns a result into the JSON result line, with exactly the
// metrics of defs, and a human-readable table with sample counts.
func resultLine(res *result, defs []metricDef, traced bool) (resultJSON, []string, error) {
	out := resultJSON{
		Correct:   res.failed == 0 && len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricJSON{},
	}
	var lines []string
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && !traced {
			return out, nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		n := ""
		if c := res.samples[d.name]; c > 0 {
			n = fmt.Sprintf("n=%d", c)
		}
		lines = append(lines, fmt.Sprintf("%-24s %14.6g %-6s %s", d.name, v, d.unit, n))
	}
	lines = append(lines, res.notes...)
	for _, p := range res.problems {
		lines = append(lines, "# FAILED: "+p)
	}
	if res.attempted < 1 {
		return out, nil, fmt.Errorf("no operation was attempted")
	}
	return out, lines, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
