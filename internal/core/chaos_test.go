package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/resilience"
)

// tinyChange builds a well-behaved mined change (a few dozen interpreter
// steps) that uses a target class, with unique provenance.
func tinyChange(idx int) mining.CodeChange {
	old := fmt.Sprintf(`class C%d {
  void m() { javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("DES"); }
}`, idx)
	nw := strings.Replace(old, `"DES"`, `"AES"`, 1)
	return mining.CodeChange{
		Meta: change.Meta{
			Project: "chaosproj",
			Commit:  fmt.Sprintf("c%02d", idx),
			File:    fmt.Sprintf("C%d.java", idx),
			Message: "tiny change",
		},
		Old: old,
		New: nw,
	}
}

// forkBomb renders a legal Java class whose abstract execution takes far
// more steps than any tinyChange: n sequential state-forking ifs evaluated
// over the capped state set.
func forkBomb(n int) string {
	var sb strings.Builder
	sb.WriteString("class Bomb {\n  void go(int x) {\n    int acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    if (x > %d) { acc = acc + %d * 2 + x; } else { acc = acc - %d; }\n", i, i, i)
	}
	sb.WriteString("  }\n}\n")
	return sb.String()
}

// TestAnalyzeAllChaos is the chaos path of the issue: inject a panic into
// change i and a budget stall into change j of a 20-change batch, and
// assert the batch completes with 18 results in input order (nil slots for
// the failures) and a ledger holding exactly the two injected failures.
//
// A case with reuse set gives change reuse[1] both sources of change
// reuse[0], so it parses and interprets nothing itself: when it is the
// panicking change, the panic still fires in its own guard (the parse
// guard when parse is set); when its owner is the panicking change, it
// analyzes live.
func TestAnalyzeAllChaos(t *testing.T) {
	cases := []struct {
		panicAt, stallAt int
		reuse            [2]int // zero: every source unique
		parse            bool
	}{
		{panicAt: 3, stallAt: 11},
		{panicAt: 0, stallAt: 19},
		{panicAt: 8, stallAt: 7},
		{panicAt: 5, stallAt: 12, reuse: [2]int{4, 5}},
		{panicAt: 5, stallAt: 12, reuse: [2]int{4, 5}, parse: true},
		{panicAt: 9, stallAt: 2, reuse: [2]int{9, 10}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("panic%d_stall%d", tc.panicAt, tc.stallAt)
		if tc.reuse != [2]int{} {
			name += fmt.Sprintf("_reuse%d_%d", tc.reuse[0], tc.reuse[1])
		}
		if tc.parse {
			name += "_parse"
		}
		t.Run(name, func(t *testing.T) {
			defer resilience.ClearFaultInjector()
			ccs := make([]mining.CodeChange, 20)
			for i := range ccs {
				ccs[i] = tinyChange(i)
			}
			if tc.reuse != [2]int{} {
				ccs[tc.reuse[1]].Old, ccs[tc.reuse[1]].New = ccs[tc.reuse[0]].Old, ccs[tc.reuse[0]].New
			}
			// The stall is real: a fork-heavy new version that exhausts the
			// per-change step budget inside the interpreter's hot loop.
			ccs[tc.stallAt].New = forkBomb(400)
			panicTask := taskName(ccs[tc.panicAt])
			wantPhase := resilience.PhaseAnalyze
			injectAt := panicTask
			if tc.parse {
				wantPhase = resilience.PhaseParse
				injectAt += " [parse]"
			}
			resilience.SetFaultInjector(func(task string) error {
				if task == injectAt {
					panic("injected chaos panic")
				}
				return nil
			})

			d := New(Options{BudgetSteps: 5000, Workers: 4})
			out := d.AnalyzeAll(context.Background(), ccs)

			if len(out) != len(ccs) {
				t.Fatalf("AnalyzeAll returned %d slots, want %d", len(out), len(ccs))
			}
			analyzed := 0
			for i, a := range out {
				if i == tc.panicAt || i == tc.stallAt {
					if a != nil {
						t.Errorf("slot %d: got a result, want nil (injected failure)", i)
					}
					continue
				}
				if a == nil {
					t.Errorf("slot %d: nil, want analyzed change", i)
					continue
				}
				analyzed++
				if a.Meta.Commit != ccs[i].Meta.Commit {
					t.Errorf("slot %d holds commit %s, want %s (order not preserved)",
						i, a.Meta.Commit, ccs[i].Meta.Commit)
				}
			}
			if analyzed != 18 {
				t.Errorf("analyzed %d changes, want 18", analyzed)
			}

			entries := d.Ledger().Entries()
			if len(entries) != 2 {
				t.Fatalf("ledger has %d entries, want 2:\n%s", len(entries), d.Ledger().Report())
			}
			byTask := map[string]resilience.Entry{}
			for _, e := range entries {
				byTask[e.Task] = e
			}
			pe, ok := byTask[panicTask]
			if !ok {
				t.Fatalf("no ledger entry for injected panic task %q", panicTask)
			}
			if pe.Phase != wantPhase || pe.Category != resilience.CatPanic {
				t.Errorf("panic entry = phase %q category %q, want %s/panic", pe.Phase, pe.Category, wantPhase)
			}
			if pe.Stack == "" {
				t.Error("panic entry has no stack snippet")
			}
			se, ok := byTask[taskName(ccs[tc.stallAt])]
			if !ok {
				t.Fatalf("no ledger entry for stalled task %q", taskName(ccs[tc.stallAt]))
			}
			if se.Phase != resilience.PhaseAnalyze || se.Category != resilience.CatBudget {
				t.Errorf("stall entry = phase %q category %q, want analyze/budget", se.Phase, se.Category)
			}
			if se.Meta["commit"] != ccs[tc.stallAt].Meta.Commit {
				t.Errorf("stall entry meta commit = %q, want %q", se.Meta["commit"], ccs[tc.stallAt].Meta.Commit)
			}
		})
	}
}

// TestMineCorpusChaos injects panics into k of the n mined changes of a
// generated corpus and asserts the full mining front-end completes with
// n−k analyzed changes and exactly k ledger entries.
func TestMineCorpusChaos(t *testing.T) {
	defer resilience.ClearFaultInjector()
	c := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.2, Projects: 10, ExtraProjects: 2})
	ccs := mining.Collect(c, mining.Options{})
	n := len(ccs)
	if n < 8 {
		t.Fatalf("generated corpus mined only %d changes; too small for chaos", n)
	}
	const k = 3
	faulty := map[string]bool{}
	for i := 0; i < k; i++ {
		faulty[taskName(ccs[i*2])] = true
	}
	if len(faulty) != k {
		t.Fatalf("task names not unique across the %d selected changes", k)
	}
	resilience.SetFaultInjector(func(task string) error {
		if faulty[task] {
			panic("injected mining panic")
		}
		return nil
	})

	d := New(Options{})
	analyzed := d.MineCorpus(context.Background(), c)
	if len(analyzed) != n-k {
		t.Errorf("MineCorpus returned %d changes, want %d (n=%d − k=%d)", len(analyzed), n-k, n, k)
	}
	for _, a := range analyzed {
		if a == nil {
			t.Error("MineCorpus returned a nil slot; skipped changes must be compacted away")
		}
	}
	entries := d.Ledger().Entries()
	if len(entries) != k {
		t.Fatalf("ledger has %d entries, want %d:\n%s", len(entries), k, d.Ledger().Report())
	}
	for _, e := range entries {
		if !faulty[e.Task] {
			t.Errorf("unexpected ledger task %q", e.Task)
		}
		if e.Phase != resilience.PhaseAnalyze || e.Category != resilience.CatPanic {
			t.Errorf("entry %q = phase %q category %q, want analyze/panic", e.Task, e.Phase, e.Category)
		}
	}
}

// TestAnalyzeAllFailFast: with FailFast set and a single worker, the first
// failure stops the batch after exactly one ledger entry.
func TestAnalyzeAllFailFast(t *testing.T) {
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if strings.HasPrefix(task, "change ") && !strings.HasSuffix(task, "[parse]") {
			panic("boom")
		}
		return nil
	})
	ccs := make([]mining.CodeChange, 10)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{FailFast: true, Workers: 1})
	out := d.AnalyzeAll(context.Background(), ccs)
	for i, a := range out {
		if a != nil {
			t.Errorf("slot %d non-nil; every change should have failed or been skipped", i)
		}
	}
	if got := d.Ledger().Len(); got != 1 {
		t.Errorf("fail-fast recorded %d failures, want 1", got)
	}
}

// TestAnalyzeAllMaxErrors: the batch aborts once MaxErrors failures are on
// the ledger.
func TestAnalyzeAllMaxErrors(t *testing.T) {
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if strings.HasPrefix(task, "change ") && !strings.HasSuffix(task, "[parse]") {
			return fmt.Errorf("%w: injected stall", resilience.ErrBudgetExhausted)
		}
		return nil
	})
	ccs := make([]mining.CodeChange, 10)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{MaxErrors: 3, Workers: 1})
	d.AnalyzeAll(context.Background(), ccs)
	if got := d.Ledger().Len(); got != 3 {
		t.Errorf("max-errors recorded %d failures, want 3", got)
	}
	for _, e := range d.Ledger().Entries() {
		if e.Category != resilience.CatBudget {
			t.Errorf("entry %q category %q, want budget", e.Task, e.Category)
		}
	}
}

// TestRunClassExtractGuard: a panic while extracting one change's usage
// changes skips that change with a PhaseExtract entry instead of aborting
// the class pipeline.
func TestRunClassExtractGuard(t *testing.T) {
	ccs := make([]mining.CodeChange, 5)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{})
	analyzed := d.AnalyzeAll(context.Background(), ccs)
	if n := d.Ledger().Len(); n != 0 {
		t.Fatalf("setup: ledger has %d entries, want 0", n)
	}

	defer resilience.ClearFaultInjector()
	victim := fmt.Sprintf("extract Cipher %s@%s:%s",
		ccs[2].Meta.Project, ccs[2].Meta.Commit, ccs[2].Meta.File)
	resilience.SetFaultInjector(func(task string) error {
		if task == victim {
			panic("extract chaos")
		}
		return nil
	})
	r := d.RunClass(context.Background(), analyzed, "Cipher")
	if r.Stats.Total == 0 {
		t.Error("RunClass extracted nothing; other changes should still contribute")
	}
	entries := d.Ledger().Entries()
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1:\n%s", len(entries), d.Ledger().Report())
	}
	if entries[0].Phase != resilience.PhaseExtract || entries[0].Category != resilience.CatPanic {
		t.Errorf("entry = phase %q category %q, want extract/panic", entries[0].Phase, entries[0].Category)
	}
}

// TestAnalyzeAllHappyPath: with no faults the resilience layer is a no-op —
// every change analyzed, empty ledger, AnalyzeChange errors nil.
func TestAnalyzeAllHappyPath(t *testing.T) {
	ccs := make([]mining.CodeChange, 20)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{BudgetSteps: 1 << 20})
	out := d.AnalyzeAll(context.Background(), ccs)
	for i, a := range out {
		if a == nil {
			t.Errorf("slot %d nil on the happy path", i)
		}
	}
	if got := d.Ledger().Len(); got != 0 {
		t.Errorf("happy path recorded %d failures, want 0:\n%s", got, d.Ledger().Report())
	}
	a, err := d.AnalyzeChange(context.Background(), ccs[0])
	if err != nil || a == nil {
		t.Errorf("AnalyzeChange = (%v, %v), want result and nil error", a, err)
	}
}

// TestAnalyzeChangeBudgetError: AnalyzeChange surfaces budget exhaustion as
// an error wrapping resilience.ErrBudgetExhausted.
func TestAnalyzeChangeBudgetError(t *testing.T) {
	cc := tinyChange(0)
	cc.New = forkBomb(400)
	d := New(Options{BudgetSteps: 5000})
	a, err := d.AnalyzeChange(context.Background(), cc)
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if a != nil {
		t.Error("got a partial AnalyzedChange, want nil")
	}
}

// TestFigure10ChaosSkipsProject injects a panic into one project's check:
// Figure 10 completes over the other projects, and the evaluation's ledger
// holds exactly that project's entry.
func TestFigure10ChaosSkipsProject(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.1, Projects: 6, ExtraProjects: 2})
	intact := CheckCorpus(c, Options{Workers: 2})
	e := NewEvaluationCtx(context.Background(), c, Options{Workers: 2})
	if n := e.DiffCode.Ledger().Len(); n != 0 {
		t.Fatalf("setup: ledger has %d entries, want 0", n)
	}
	victim := c.Projects[3]
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if task == "check "+victim.Name {
			panic("figure 10 chaos")
		}
		return nil
	})
	f10 := e.Figure10()
	if f10.Projects != intact.Projects-1 {
		t.Errorf("Figure 10 covers %d projects, want %d (all but the victim)", f10.Projects, intact.Projects-1)
	}
	entries := e.DiffCode.Ledger().Entries()
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1:\n%s", len(entries), e.DiffCode.Ledger().Report())
	}
	if got := entries[0]; got.Task != "check "+victim.Name || got.Category != resilience.CatPanic || got.Meta["project"] != victim.Name {
		t.Errorf("entry = %q %s/%s meta %v, want the victim's panic", got.Task, got.Phase, got.Category, got.Meta)
	}
}

// TestTrendChaosSkipsProject injects a panic into one project's trend
// check: Trend completes over the other projects, and the ledger holds
// exactly that project's entry (task "trend <project>", phase analyze).
func TestTrendChaosSkipsProject(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.1, Projects: 6, ExtraProjects: 2})
	intact := Trend(c, Options{Workers: 2})
	if intact.Projects < 2 {
		t.Fatalf("setup: trend covers %d projects, want at least 2", intact.Projects)
	}
	var victim *corpus.Project
	for _, p := range c.TrainingProjects() {
		if p.ForkOf == "" {
			victim = p
		}
	}
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if task == "trend "+victim.Name {
			panic("trend chaos")
		}
		return nil
	})
	ledger := resilience.NewLedger()
	got := Trend(c, Options{Workers: 2, Ledger: ledger})
	if got.Projects != intact.Projects-1 {
		t.Errorf("trend covers %d projects, want %d (all but the victim)", got.Projects, intact.Projects-1)
	}
	entries := ledger.Entries()
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1:\n%s", len(entries), ledger.Report())
	}
	e := entries[0]
	if e.Task != "trend "+victim.Name || e.Phase != resilience.PhaseAnalyze ||
		e.Category != resilience.CatPanic || e.Meta["project"] != victim.Name {
		t.Errorf("entry = %q %s/%s meta %v, want the victim's panic", e.Task, e.Phase, e.Category, e.Meta)
	}
}

// TestAnalyzeSourceGuarded: a panic inside AnalyzeSource or BuildDAGs
// comes back as an error instead of crashing, and Options.BudgetSteps
// bounds the analysis.
func TestAnalyzeSourceGuarded(t *testing.T) {
	ctx := context.Background()
	src := tinyChange(0).Old
	res, err := AnalyzeSource(ctx, src, Options{})
	if err != nil || len(res.ObjsOfType(cryptoapi.Cipher)) != 1 {
		t.Fatalf("intact AnalyzeSource = %v, %v; want one Cipher object", res, err)
	}
	if _, err := AnalyzeSource(ctx, forkBomb(400), Options{BudgetSteps: 5000}); !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Errorf("budgeted AnalyzeSource err = %v, want ErrBudgetExhausted", err)
	}
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if task == "analyze source" {
			panic("analyze source chaos")
		}
		return nil
	})
	if res, err := AnalyzeSource(ctx, src, Options{}); res != nil || resilience.Categorize(err) != resilience.CatPanic {
		t.Errorf("AnalyzeSource = %v, %v; want a panic error", res, err)
	}
	if gs, err := BuildDAGs(ctx, src, cryptoapi.Cipher, Options{}); gs != nil || resilience.Categorize(err) != resilience.CatPanic {
		t.Errorf("BuildDAGs = %v, %v; want a panic error", gs, err)
	}
}
