package diffcode

// Benchmarks for memoized per-method summaries (DESIGN.md §14). The number
// that matters is the on/off ratio on a helper-heavy program: "off" means
// no summary table, so the interpreter re-executes every helper body live
// at every call site in every fork (the re-inlining tax) under the same
// cycle detection; with a table, each unique (method, arguments, context)
// executes once and replays everywhere else.
//
//	make bench-summary         # writes BENCH_summary.json
//
// Without BENCH_SUMMARY_OUT the snapshot runner skips, keeping `go test .`
// fast; the named benchmark runs under `-bench` as usual.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/summary"
)

// benchSummarySource builds the helper-heavy workload: entries entry
// methods, each invoking the same chunky helper four times with identical
// constant arguments. The helper body is stmts statements of local string
// work ending in a crypto-API call, so a single execution is expensive and
// a replay is cheap — exactly the shape of real utility-wrapped crypto
// code, where one doCrypt helper is called from dozens of call sites.
func benchSummarySource(entries, stmts int) string {
	var sb strings.Builder
	sb.WriteString("class Bench {\n")
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&sb, "    void entry%d() {\n", i)
		for j := 0; j < 4; j++ {
			sb.WriteString("        work(\"AES/CBC/PKCS5Padding\");\n")
		}
		sb.WriteString("    }\n")
	}
	sb.WriteString("    Cipher work(String s) {\n")
	for i := 0; i < stmts; i++ {
		fmt.Fprintf(&sb, "        String x%d = s + \"pad%d\";\n", i, i)
	}
	sb.WriteString("        Cipher c = Cipher.getInstance(s);\n")
	sb.WriteString("        c.init(Cipher.ENCRYPT_MODE, key);\n")
	sb.WriteString("        return c;\n")
	sb.WriteString("    }\n}\n")
	return sb.String()
}

// benchSummaryOnce analyzes the workload once, with or without a (fresh)
// summary table, and returns the cipher-object count as a liveness check.
func benchSummaryOnce(src string, summaries bool, reg *obs.Registry) int {
	opts := analysis.Options{}
	if summaries {
		opts.Summaries = summary.NewTable(nil, reg)
	}
	r := analysis.AnalyzeSource(src, opts)
	return len(r.ObjsOfType("Cipher"))
}

// benchSummaryAt runs the abstract interpretation of the helper-heavy
// program with summaries on (a fresh table every iteration — the measured
// win is within-run memoization, not cross-run caching) or off.
func benchSummaryAt(src string, summaries bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchSummaryOnce(src, summaries, nil) == 0 {
				b.Fatal("no cipher objects; workload exercises too little")
			}
		}
	}
}

// BenchmarkSummaries compares table-free live execution with the memoizing
// interpreter on the helper-heavy workload. The spread is the re-inlining
// tax: every call past the first replays a recorded effect triple instead
// of re-interpreting the helper body.
func BenchmarkSummaries(b *testing.B) {
	src := benchSummarySource(24, 160)
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("summaries=%t", on), benchSummaryAt(src, on))
	}
}

// TestWriteBenchSummary snapshots the table-free and memoized timings and
// their ratio into BENCH_summary.json (diffcode-metrics/v1 schema). The
// speedup gauge is in thousandths: 5000 means the memoized interpreter is
// 5x faster. Acceptance (asserted here, not just recorded): speedup_milli
// >= 3000 on the helper-heavy workload, and the memoized run reports more
// hits than misses. Skips unless BENCH_SUMMARY_OUT is set.
func TestWriteBenchSummary(t *testing.T) {
	out := os.Getenv("BENCH_SUMMARY_OUT")
	if out == "" {
		t.Skip("set BENCH_SUMMARY_OUT=<file> to write the summary-run snapshot")
	}
	src := benchSummarySource(24, 160)
	reg := obs.NewRegistry()
	// Interleave off/on rounds and keep each variant's fastest round:
	// min-of-N cancels the machine's slow drift (GC phase, neighboring
	// load) that a single back-to-back pair would bake into the ratio.
	const rounds = 3
	var off, on testing.BenchmarkResult
	for i := 0; i < rounds; i++ {
		of := testing.Benchmark(benchSummaryAt(src, false))
		onr := testing.Benchmark(benchSummaryAt(src, true))
		if of.N == 0 || onr.N == 0 {
			t.Fatal("benchmark did not run")
		}
		if i == 0 || of.NsPerOp() < off.NsPerOp() {
			off = of
		}
		if i == 0 || onr.NsPerOp() < on.NsPerOp() {
			on = onr
		}
	}
	reg.Gauge("bench.summary.off_ns_per_op").Set(off.NsPerOp())
	reg.Gauge("bench.summary.on_ns_per_op").Set(on.NsPerOp())
	speedup := int64(0)
	if on.NsPerOp() > 0 {
		speedup = off.NsPerOp() * 1000 / on.NsPerOp()
	}
	reg.Gauge("bench.summary.speedup_milli").Set(speedup)

	// One instrumented memoized run for the hit-ratio gauges: the workload
	// calls the helper 96 times with one key, so hits must dwarf misses.
	hreg := obs.NewRegistry()
	benchSummaryOnce(src, true, hreg)
	s := obs.TakeSnapshot(hreg, false)
	reg.Gauge("bench.summary.hits").Set(s.Counters["summary.hits"])
	reg.Gauge("bench.summary.misses").Set(s.Counters["summary.misses"])

	t.Logf("interpret  off %12d ns/op   on %12d ns/op   speedup %d.%03dx (hits=%d misses=%d)",
		off.NsPerOp(), on.NsPerOp(), speedup/1000, speedup%1000,
		s.Counters["summary.hits"], s.Counters["summary.misses"])
	if err := obs.WriteSnapshotFile(out, reg, false); err != nil {
		t.Fatalf("writing summary snapshot: %v", err)
	}
	t.Logf("summary-run snapshot written to %s", out)
	if speedup < 3000 {
		t.Errorf("memoized speedup %d.%03dx below the 3x acceptance bound", speedup/1000, speedup%1000)
	}
	if s.Counters["summary.hits"] <= s.Counters["summary.misses"] {
		t.Errorf("memoized run hits=%d misses=%d, want hits > misses",
			s.Counters["summary.hits"], s.Counters["summary.misses"])
	}
}
