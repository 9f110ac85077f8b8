package diffcode

// Benchmarks for the incremental artifact store (DESIGN.md §13). The number
// that matters is the warm/cold ratio: a re-run of the mining pipeline over
// an unchanged corpus with a populated -cache-dir must be at least 10x
// faster than the cold run that populated it — warm hits skip parsing and
// abstract interpretation entirely and only reinstantiate cached
// extractions.
//
//	make bench-incr            # writes BENCH_incr.json
//
// Without BENCH_INCR_OUT the snapshot runner skips, keeping `go test .`
// fast; the named benchmark runs under `-bench` as usual.

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/obs"
)

// benchIncrCorpus is the shared incremental-benchmark workload: large enough
// that parse+interpret dominate a cold run, small enough for CI.
func benchIncrCorpus() *corpus.Corpus {
	return corpus.Generate(corpus.Config{Seed: 11, Scale: 0.4, Projects: 30, ExtraProjects: 3})
}

// benchMineOnce runs the full mining pipeline (mine + per-class filter)
// against a disk-backed artifact store over dir and returns the survivor
// count as a liveness check.
func benchMineOnce(c *corpus.Corpus, dir string, reg *obs.Registry) int {
	d := core.New(core.Options{
		Workers:   1,
		Metrics:   reg,
		Artifacts: artifact.New(artifact.Config{Dir: dir, Metrics: reg}),
	})
	analyzed := d.MineCorpus(context.Background(), c)
	survivors := 0
	for _, class := range cryptoapi.TargetClasses {
		survivors += len(d.RunClass(context.Background(), analyzed, class).Survivors)
	}
	return survivors
}

// benchIncrAt runs the pipeline cold (a fresh artifact directory every
// iteration) or warm (every iteration over one pre-populated directory).
func benchIncrAt(c *corpus.Corpus, warm bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var warmDir string
		if warm {
			warmDir = b.TempDir()
			benchMineOnce(c, warmDir, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dir := warmDir
			if !warm {
				b.StopTimer()
				dir = b.TempDir()
				b.StartTimer()
			}
			if benchMineOnce(c, dir, nil) == 0 {
				b.Fatal("no survivors; workload exercises too little")
			}
		}
	}
}

// BenchmarkIncrementalMining compares a cold mining run (empty artifact
// directory) with a fully warm re-run over the same directory. The spread
// between the two sub-benchmarks is everything the artifact store saves:
// all parsing and all abstract interpretation.
func BenchmarkIncrementalMining(b *testing.B) {
	c := benchIncrCorpus()
	for _, warm := range []bool{false, true} {
		b.Run(fmt.Sprintf("warm=%t", warm), benchIncrAt(c, warm))
	}
}

// TestWriteBenchIncr snapshots the cold and warm mining timings and their
// ratio into BENCH_incr.json (diffcode-metrics/v1 schema, like the other
// snapshots). The speedup gauge is in thousandths: 25000 means the warm
// re-run is 25x faster. Acceptance (asserted here, not just recorded):
// speedup_milli >= 10000 — a warm re-run is at least 10x faster than cold —
// and the warm run's artifact.misses stays 0. Skips unless BENCH_INCR_OUT
// is set.
func TestWriteBenchIncr(t *testing.T) {
	out := os.Getenv("BENCH_INCR_OUT")
	if out == "" {
		t.Skip("set BENCH_INCR_OUT=<file> to write the incremental-run snapshot")
	}
	c := benchIncrCorpus()
	reg := obs.NewRegistry()
	// Interleave cold/warm rounds and keep each variant's fastest round:
	// min-of-N cancels the machine's slow drift (GC phase, neighboring
	// load) that a single back-to-back pair would bake into the ratio.
	const rounds = 3
	var cold, warmRes testing.BenchmarkResult
	for i := 0; i < rounds; i++ {
		co := testing.Benchmark(benchIncrAt(c, false))
		wa := testing.Benchmark(benchIncrAt(c, true))
		if co.N == 0 || wa.N == 0 {
			t.Fatal("benchmark did not run")
		}
		if i == 0 || co.NsPerOp() < cold.NsPerOp() {
			cold = co
		}
		if i == 0 || wa.NsPerOp() < warmRes.NsPerOp() {
			warmRes = wa
		}
	}
	reg.Gauge("bench.incremental.cold_ns_per_op").Set(cold.NsPerOp())
	reg.Gauge("bench.incremental.warm_ns_per_op").Set(warmRes.NsPerOp())
	speedup := int64(0)
	if warmRes.NsPerOp() > 0 {
		speedup = cold.NsPerOp() * 1000 / warmRes.NsPerOp()
	}
	reg.Gauge("bench.incremental.speedup_milli").Set(speedup)

	// One instrumented warm run for the hit-ratio gauges: every change must
	// resolve from the store (zero analysis misses on a warm directory).
	dir := t.TempDir()
	benchMineOnce(c, dir, nil)
	wreg := obs.NewRegistry()
	benchMineOnce(c, dir, wreg)
	s := obs.TakeSnapshot(wreg, false)
	reg.Gauge("bench.incremental.warm_hits").Set(s.Counters["artifact.hits"])
	reg.Gauge("bench.incremental.warm_misses").Set(s.Counters["artifact.misses"])

	t.Logf("mining  cold %12d ns/op   warm %12d ns/op   speedup %d.%03dx (hits=%d misses=%d)",
		cold.NsPerOp(), warmRes.NsPerOp(), speedup/1000, speedup%1000,
		s.Counters["artifact.hits"], s.Counters["artifact.misses"])
	if err := obs.WriteSnapshotFile(out, reg, false); err != nil {
		t.Fatalf("writing incremental snapshot: %v", err)
	}
	t.Logf("incremental-run snapshot written to %s", out)
	if speedup < 10000 {
		t.Errorf("warm re-run speedup %d.%03dx below the 10x acceptance bound", speedup/1000, speedup%1000)
	}
	if s.Counters["artifact.analysis.misses"] != 0 {
		t.Errorf("warm run had %d analysis misses, want 0", s.Counters["artifact.analysis.misses"])
	}
}
