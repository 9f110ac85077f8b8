package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// figuresCorpus gives Cipher and SecretKeySpec several survivors, so the
// fingerprint below holds real dendrograms and elicited rules.
func figuresCorpus() *corpus.Corpus {
	return corpus.Generate(corpus.Config{Seed: 3, Scale: 0.5, Projects: 60, ExtraProjects: 3})
}

// evalFingerprint renders everything the Evaluation's figure methods
// return, in a fixed call order.
func evalFingerprint(e *Evaluation) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, e.Figure6())
	fmt.Fprintln(&sb, e.Figure7())
	fmt.Fprintf(&sb, "%+v\n", e.Figure7Data())
	f8 := e.Figure8()
	fmt.Fprintf(&sb, "%s\necb=%v\n", f8.Rendering, f8.ECBCluster)
	for _, c := range f8.Survivors {
		sb.WriteString(e.RenderProvenance(c, 1))
	}
	fmt.Fprintln(&sb, e.Figure10().Table())
	for _, er := range e.ElicitRules() {
		fmt.Fprintf(&sb, "[%s] support=%d reversals=%d members=%d rule=%s\n",
			er.Class, er.Support, er.Reversals, len(er.Members), er.Rule.Formula)
	}
	fmt.Fprintf(&sb, "%+v\n", e.ComputeHeadline(e.Figure10()))
	for _, c := range e.SortedSurvivors(cryptoapi.Cipher) {
		fmt.Fprintf(&sb, "%s@%s %s", c.Meta.Project, c.Meta.Commit, c.String())
	}
	return sb.String()
}

// TestEvaluationExtractsOnce: after every figure, the elicitation and the
// headline have run, each analyzed change has been extracted exactly once
// per target class it uses.
func TestEvaluationExtractsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEvaluationCtx(context.Background(), figuresCorpus(), Options{Metrics: reg})
	want := 0
	for _, a := range e.Analyzed {
		for _, class := range cryptoapi.TargetClasses {
			if a.UsesClass(class) {
				want++
			}
		}
	}
	if want == 0 {
		t.Fatal("corpus mined no change using a target class")
	}
	evalFingerprint(e)
	if got := obs.TakeSnapshot(reg, false).Counters["extract.runs"]; got != int64(want) {
		t.Errorf("extract.runs = %d, want %d (one per analyzed change and class it uses)", got, want)
	}
}

// TestEvaluationSkipsFailedExtraction: when one change's Cipher extraction
// panics, the guarded pass skips it once, and every figure built on the
// extraction leaves that change out — exactly as if it had never been
// mined.
func TestEvaluationSkipsFailedExtraction(t *testing.T) {
	ccs := make([]mining.CodeChange, 5)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	const victim = 2
	d := New(Options{})
	analyzed := d.AnalyzeAll(context.Background(), ccs)
	ref := New(Options{})
	rest := append(append([]*AnalyzedChange{}, analyzed[:victim]...), analyzed[victim+1:]...)
	want := &Evaluation{DiffCode: ref, Analyzed: rest}

	defer resilience.ClearFaultInjector()
	task := fmt.Sprintf("extract Cipher %s@%s:%s",
		ccs[victim].Meta.Project, ccs[victim].Meta.Commit, ccs[victim].Meta.File)
	resilience.SetFaultInjector(func(name string) error {
		if name == task {
			panic("extract chaos")
		}
		return nil
	})
	got := &Evaluation{DiffCode: d, Analyzed: analyzed}

	if g, w := got.Figure6().String(), want.Figure6().String(); g != w {
		t.Errorf("Figure 6 counts the skipped change:\n%s\nwant:\n%s", g, w)
	}
	if g, w := got.Figure7Data(), want.Figure7Data(); !reflect.DeepEqual(g, w) {
		t.Errorf("Figure 7 counts the skipped change:\n%+v\nwant:\n%+v", g, w)
	}
	elicited := func(e *Evaluation) string {
		var sb strings.Builder
		for _, er := range e.ElicitRules() {
			fmt.Fprintf(&sb, "[%s] support=%d reversals=%d members=%d\n",
				er.Class, er.Support, er.Reversals, len(er.Members))
		}
		return sb.String()
	}
	if g, w := elicited(got), elicited(want); g != w || w == "" {
		t.Errorf("ElicitRules counts the skipped change:\n%s\nwant:\n%s", g, w)
	}
	survivors := got.SortedSurvivors(cryptoapi.Cipher)
	if len(survivors) == 0 {
		t.Fatal("no Cipher survivors; the other changes should still contribute")
	}
	for _, a := range got.Provenance(survivors[0]) {
		if a == analyzed[victim] {
			t.Errorf("Provenance lists the skipped change %s", a.Meta.Commit)
		}
	}
	if g, w := got.ComputeHeadline(nil), want.ComputeHeadline(nil); g != w {
		t.Errorf("headline counts the skipped change: %+v, want %+v", g, w)
	}

	entries := d.Ledger().Entries()
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1:\n%s", len(entries), d.Ledger().Report())
	}
	if entries[0].Phase != resilience.PhaseExtract || entries[0].Task != task {
		t.Errorf("entry = phase %q task %q, want %q %q", entries[0].Phase, entries[0].Task, resilience.PhaseExtract, task)
	}
}

// TestEvaluationConcurrentFigures calls every figure method from several
// goroutines at once on one Evaluation; each must see exactly the serial
// result. Run under -race it also checks the memoized state.
func TestEvaluationConcurrentFigures(t *testing.T) {
	c := figuresCorpus()
	want := evalFingerprint(NewEvaluationCtx(context.Background(), c, Options{}))
	if !strings.Contains(want, "h=") || !strings.Contains(want, "support=") {
		t.Fatalf("corpus gives no dendrogram or elicited rule; the test exercises too little:\n%.800s", want)
	}
	e := NewEvaluationCtx(context.Background(), c, Options{})
	const callers = 4
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = evalFingerprint(e)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("caller %d: concurrent result differs from serial\ngot:\n%.800s\nwant:\n%.800s", i, g, want)
		}
	}
}
