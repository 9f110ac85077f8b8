package analysis

import (
	"errors"
	"testing"

	"repro/internal/fuzzseed"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/summary"
)

// fuzzReplayBudget bounds each run of FuzzSummaryReplay: generous for any
// seed, small enough that an adversarial input cannot stall the fuzzer.
const fuzzReplayBudget = 2_000_000

// FuzzSummaryReplay is the differential oracle for memo replay: on any
// input, the analysis without a summary table (every callee runs live), with
// a fresh table, and with a table warmed by one earlier analysis of the same
// program must render byte-identically. Inputs that exhaust the step budget
// are skipped: a replay charges the recorded cost of the execution it stands
// in for, so exhaustion boundaries may move (never results within budget).
func FuzzSummaryReplay(f *testing.F) {
	for _, seed := range fuzzseed.Java {
		f.Add(seed)
	}
	for _, seed := range []string{deepChainSrc, recursionSrc, mutualRecursionSrc, helperForkSrc, outerGuardSrc} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		run := func(tbl *summary.Table) string {
			r, err := analyzeSourceBudgeted(src, Options{
				Budget:    resilience.NewBudget(fuzzReplayBudget, 0),
				Summaries: tbl,
			})
			if errors.Is(err, resilience.ErrBudgetExhausted) {
				t.Skip("step budget exhausted")
			}
			return renderResult(r)
		}
		live := run(nil)
		tbl := summary.NewTable(nil, obs.NewRegistry())
		cold := run(tbl)
		warm := run(tbl)
		if cold != live {
			t.Fatalf("fresh-table result diverges from live execution:\n--- live ---\n%s--- fresh ---\n%s", live, cold)
		}
		if warm != live {
			t.Fatalf("warm-table result diverges from live execution:\n--- live ---\n%s--- warm ---\n%s", live, warm)
		}
	})
}
