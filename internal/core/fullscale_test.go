package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/rules"
)

// TestPaperScale runs the evaluation at the paper's full data-set size
// (461 + 58 projects, scale 1.0) and asserts every headline claim. Skipped
// under -short: the run analyzes ~13k code changes (~10s).
func TestPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	c := corpus.Generate(corpus.Default())
	if got := len(c.TrainingProjects()); got < 461 {
		t.Fatalf("training projects = %d, want >= 461", got)
	}
	e := NewEvaluationCtx(context.Background(), c, Options{})
	if len(e.Analyzed) < 10_000 {
		t.Fatalf("analyzed changes = %d, want >= 10k at paper scale", len(e.Analyzed))
	}
	f10 := e.Figure10()
	h := e.ComputeHeadline(f10)
	if h.FilteredPct <= 99 {
		t.Errorf("filtered = %.2f%%, want > 99%%", h.FilteredPct)
	}
	if h.FixPct <= 80 {
		t.Errorf("fix share = %.1f%%, want > 80%%", h.FixPct)
	}
	if h.ViolatedPct <= 57 {
		t.Errorf("violated = %.1f%%, want > 57%%", h.ViolatedPct)
	}
	// Figure 8 must isolate the ECB cluster at full scale.
	f8 := e.Figure8()
	if len(f8.ECBCluster) < 3 {
		t.Errorf("ECB cluster size = %d, want >= 3 at paper scale", len(f8.ECBCluster))
	}
	// Elicitation recovers the headline rule families.
	elicited := e.ElicitRules()
	if len(elicited) < 5 {
		t.Errorf("elicited rules = %d, want >= 5", len(elicited))
	}
	for _, er := range elicited {
		if er.Direction != rules.SecurityFix {
			t.Errorf("non-fix cluster emitted: %+v", er)
		}
	}
	// Figure 10 per-rule shape at full scale.
	rate := map[string]float64{}
	for _, r := range f10.Rows {
		if r.Applicable > 0 {
			rate[r.Rule] = float64(r.Matching) / float64(r.Applicable)
		}
	}
	if rate["R3"] < 0.9 || rate["R5"] < 0.9 {
		t.Errorf("R3/R5 should match nearly all applicable projects: %.2f / %.2f",
			rate["R3"], rate["R5"])
	}
	if rate["R12"] > 0.05 || rate["R4"] > 0.05 {
		t.Errorf("R4/R12 should be rare: %.2f / %.2f", rate["R4"], rate["R12"])
	}
}
