package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// renderAnalysis serializes everything a result exposes: objects in
// discovery order with their sites, and each object's events with their
// dedup keys and call-site positions.
func renderAnalysis(r *analysis.Result) string {
	if r == nil {
		return "<nil>\n"
	}
	var sb strings.Builder
	for _, o := range r.Objs {
		fmt.Fprintf(&sb, "#%d %s @%d:%d\n", o.ID, o.Type, o.Site.Line, o.Site.Col)
		for _, e := range r.Uses[o] {
			fmt.Fprintf(&sb, "  %s %s@%d:%d\n", e.Key(), e.File, e.Pos.Line, e.Pos.Col)
		}
	}
	return sb.String()
}

// stepsOf measures what analyzing src charges to a budget.
func stepsOf(t *testing.T, src string) int64 {
	t.Helper()
	b := resilience.NewBudget(1<<40, 0)
	prog := analysis.ParseProgram(map[string]string{"Main.java": src})
	if _, err := analysis.AnalyzeBudgetedCtx(context.Background(), prog, analysis.Options{Budget: b}); err != nil {
		t.Fatalf("measuring steps: %v", err)
	}
	return b.Used()
}

// TestSourceShareExactness is the differential oracle of the in-batch
// source memo: on a generated corpus, every analyzed version renders
// exactly as an independent AnalyzeSource of its text, and the batch
// analyzes (and skips) exactly the changes a fresh DiffCode analyzing each
// change alone does — with and without a budget that skips some of them.
func TestSourceShareExactness(t *testing.T) {
	ccs := mining.Collect(determinismCorpus(), mining.Options{})
	distinct := map[string]bool{}
	for _, cc := range ccs {
		distinct[cc.Old] = true
		distinct[cc.New] = true
	}
	if len(distinct) >= 2*len(ccs) {
		t.Fatalf("corpus has no shared sources (%d distinct of %d versions); the memo is not exercised", len(distinct), 2*len(ccs))
	}
	// The second budget is the median per-change cost, so about half the
	// changes fit and half are skipped.
	steps := map[string]int64{}
	for src := range distinct {
		steps[src] = stepsOf(t, src)
	}
	totals := make([]int64, len(ccs))
	for i, cc := range ccs {
		totals[i] = steps[cc.Old] + steps[cc.New]
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	for _, budget := range []int64{0, totals[len(totals)/2]} {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("budget%d_workers%d", budget, w), func(t *testing.T) {
				reg := obs.NewRegistry()
				d := New(Options{Workers: w, BudgetSteps: budget, Metrics: reg})
				out := d.AnalyzeAll(context.Background(), ccs)
				alone := New(Options{Workers: 1, BudgetSteps: budget})
				skipped := 0
				for i, cc := range ccs {
					if _, err := alone.AnalyzeChange(context.Background(), cc); (out[i] == nil) != (err != nil) {
						t.Fatalf("change %d (%s): batch analyzed=%t, alone err=%v", i, taskName(cc), out[i] != nil, err)
					}
					if out[i] == nil {
						skipped++
						continue
					}
					for _, v := range []struct {
						src string
						res *analysis.Result
					}{{cc.Old, out[i].Old}, {cc.New, out[i].New}} {
						got, want := renderAnalysis(v.res), renderAnalysis(analysis.AnalyzeSource(v.src, analysis.Options{}))
						if got != want {
							t.Fatalf("change %d: a version differs from AnalyzeSource of its text:\n--- batch ---\n%s--- alone ---\n%s", i, got, want)
						}
					}
				}
				if d.Ledger().Len() != skipped {
					t.Errorf("ledger has %d entries, want %d skipped changes", d.Ledger().Len(), skipped)
				}
				if budget > 0 && (skipped == 0 || skipped == len(ccs)) {
					t.Fatalf("budget %d skipped %d of %d changes; the oracle needs both outcomes", budget, skipped, len(ccs))
				}
				if budget == 0 {
					if got := reg.Counter("parse.files").Value(); got != int64(len(distinct)) {
						t.Errorf("parse.files = %d, want one per distinct source (%d)", got, len(distinct))
					}
				}
			})
		}
	}
}

// TestSourceShareBudget: a change whose reused version's recorded steps
// push the shared budget over BudgetSteps is skipped with the same ledger
// entry it gets when analyzed alone by a fresh DiffCode, while the change
// that owns the reused source fits its budget.
func TestSourceShareBudget(t *testing.T) {
	x := obsOld
	y := forkBomb(20)
	z := obsNew + "\nclass Z { void f(int a) { if (a > 0) { a = a + 1; } else { a = a - 1; } } }\n"
	sx, sy, sz := stepsOf(t, x), stepsOf(t, y), stepsOf(t, z)
	if sz <= sx {
		t.Fatalf("fixture: steps(z)=%d must exceed steps(x)=%d", sz, sx)
	}
	budget := sx + sy // the owner of y fits exactly; y+z does not
	owner := mining.CodeChange{Meta: change.Meta{Project: "p", Commit: "c1", File: "A.java"}, Old: x, New: y}
	reuser := mining.CodeChange{Meta: change.Meta{Project: "p", Commit: "c2", File: "A.java"}, Old: y, New: z}

	_, aloneErr := New(Options{BudgetSteps: budget}).AnalyzeChange(context.Background(), reuser)
	if !errors.Is(aloneErr, resilience.ErrBudgetExhausted) {
		t.Fatalf("alone: err = %v, want budget exhaustion", aloneErr)
	}
	want := resilience.NewEntry(taskName(reuser), resilience.PhaseAnalyze, aloneErr)

	for _, w := range []int{1, 2} {
		reg := obs.NewRegistry()
		d := New(Options{BudgetSteps: budget, Workers: w, Metrics: reg})
		out := d.AnalyzeAll(context.Background(), []mining.CodeChange{owner, reuser})
		if out[0] == nil || out[1] != nil {
			t.Fatalf("workers=%d: slots = (%v, %v), want owner analyzed and reuser skipped", w, out[0] != nil, out[1] != nil)
		}
		if got := reg.Counter("parse.files").Value(); got != 3 {
			t.Errorf("workers=%d: parse.files = %d, want 3 (y parsed once, by its owner)", w, got)
		}
		entries := d.Ledger().Entries()
		if len(entries) != 1 {
			t.Fatalf("workers=%d: ledger has %d entries, want 1:\n%s", w, len(entries), d.Ledger().Report())
		}
		e := entries[0]
		if e.Task != want.Task || e.Phase != want.Phase || e.Category != want.Category || e.Err != want.Err {
			t.Errorf("workers=%d: entry = %q %s/%s %q, want %q %s/%s %q", w,
				e.Task, e.Phase, e.Category, e.Err, want.Task, want.Phase, want.Category, want.Err)
		}
	}
}
