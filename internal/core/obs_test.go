package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// tickClock advances one millisecond per reading, making span durations
// deterministic: every span costs exactly two readings, i.e. 1ms.
type tickClock struct{ ticks atomic.Int64 }

func (c *tickClock) now() time.Time {
	return time.Unix(0, c.ticks.Add(1)*int64(time.Millisecond))
}

const obsOld = `
class A {
    void m(Key k) throws Exception {
        Cipher c = Cipher.getInstance("DES");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`

const obsNew = `
class A {
    void m(Key k) throws Exception {
        Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`

// twoChanges is the fixed two-change workload of the golden tests.
func twoChanges() []mining.CodeChange {
	return []mining.CodeChange{
		{Meta: change.Meta{Project: "p", Commit: "c1", File: "A.java"}, Old: obsOld, New: obsNew},
		{Meta: change.Meta{Project: "p", Commit: "c2", File: "B.java"}, Old: obsOld, New: obsNew},
	}
}

// TestPipelineMetricsTwoChanges drives the instrumented pipeline over a
// fixed two-change run and asserts the stderr summary table verbatim
// (deterministic thanks to the tick clock and a single worker). Both
// changes carry the same two sources, so the batch parses and interprets
// each once: the first change owns both, the second reuses them.
func TestPipelineMetricsTwoChanges(t *testing.T) {
	clock := &tickClock{}
	reg := obs.NewRegistryClock(clock.now)
	d := New(Options{Workers: 1, Metrics: reg})
	analyzed := d.AnalyzeAll(context.Background(), twoChanges())
	for i, a := range analyzed {
		if a == nil {
			t.Fatalf("change %d skipped unexpectedly", i)
		}
	}
	r := d.RunClass(context.Background(), analyzed, "Cipher")
	if len(r.Survivors) == 0 {
		t.Fatal("expected semantic Cipher survivors")
	}

	want := strings.Join([]string{
		"stage            runs      total       mean        p50        p90        max  slowest",
		"analyze             1        1ms        1ms        1ms        1ms        1ms  change p@c1:A.java",
		"extract             1        1ms        1ms        1ms        1ms        1ms  Cipher",
		"filter              1        1ms        1ms        1ms        1ms        1ms  Cipher",
		"parse               1        1ms        1ms        1ms        1ms        1ms  change p@c1:A.java",
		"counters",
		"  analysis.changes_analyzed                         2",
		"  analysis.runs                                     2",
		"  analysis.steps                                   16",
		// Both changes share their two results, so the class pass builds
		// each result's DAG set once.
		"  extract.dag_builds                                2",
		"  extract.runs                                      2",
		"  extract.usage_changes                             2",
		"  filter.survivors                                  1",
		"  filter.usage_changes                              2",
		"  parse.bytes                                     301",
		"  parse.errors                                      0",
		"  parse.files                                       2",
		// The summary.* counters register eagerly when the table is built
		// (so a Prometheus scrape carries the series from the start); this
		// workload has no helper calls, so all four stay zero.
		"  summary.cycles                                    0",
		"  summary.hits                                      0",
		"  summary.instantiations                            0",
		"  summary.misses                                    0",
		"gauges",
		"  pipeline.workers                                  1",
		"distributions",
		"  analysis.steps_per_run                 n=2 sum=16 min=8 p50=8 p90=8 max=8",
		"",
	}, "\n")
	if got := reg.Summary(); got != want {
		t.Errorf("summary mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSnapshotCarriesStageAndFailureMetrics checks the acceptance shape of
// the -metrics artifact: per-stage span histograms, step counters, and
// ledger-derived failure counts all land in one snapshot.
func TestSnapshotCarriesStageAndFailureMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Options{Workers: 2, Metrics: reg, BudgetSteps: 10})
	// Budget of 10 steps guarantees both changes exhaust and land in the
	// ledger rather than the result.
	analyzed := d.AnalyzeAll(context.Background(), twoChanges())
	for i, a := range analyzed {
		if a != nil {
			t.Fatalf("change %d survived a 10-step budget", i)
		}
	}
	obs.FoldLedger(reg, d.Ledger())
	s := obs.TakeSnapshot(reg, false)
	if s.Counters["failures.total"] != 2 ||
		s.Counters["failures.category."+string(resilience.CatBudget)] != 2 {
		t.Fatalf("failure counters missing: %v", s.Counters)
	}
	h, ok := s.Histograms["span.analyze.us"]
	if !ok || h.Count != 2 {
		t.Fatalf("span.analyze.us histogram missing or wrong: %+v", s.Histograms)
	}
	if s.Counters["analysis.steps"] == 0 {
		t.Fatal("analysis.steps not recorded")
	}
	if _, ok := s.Slowest["analyze"]; !ok {
		t.Fatalf("slowest-task attribution missing: %v", s.Slowest)
	}
}

// TestUninstrumentedPipelineUnchanged guards the no-op path: a nil registry
// must not alter results (the CLIs rely on byte-identical output when no
// observability flag is set).
func TestUninstrumentedPipelineUnchanged(t *testing.T) {
	plain := New(Options{Workers: 1})
	instr := New(Options{Workers: 1, Metrics: obs.NewRegistry()})
	a1 := plain.AnalyzeAll(context.Background(), twoChanges())
	a2 := instr.AnalyzeAll(context.Background(), twoChanges())
	r1 := plain.RunClass(context.Background(), a1, "Cipher")
	r2 := instr.RunClass(context.Background(), a2, "Cipher")
	if r1.Stats != r2.Stats || len(r1.Survivors) != len(r2.Survivors) {
		t.Fatalf("instrumentation changed results: %+v vs %+v", r1.Stats, r2.Stats)
	}
	for i := range r1.Survivors {
		if r1.Survivors[i].String() != r2.Survivors[i].String() {
			t.Fatalf("survivor %d differs", i)
		}
	}
}
