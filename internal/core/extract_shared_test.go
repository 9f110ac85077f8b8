package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/resilience"
	"repro/internal/usage"
)

// sharedExtractCorpus mines a corpus with more changes than two extraction
// windows, so DAG sets are built, carried over and dropped.
func sharedExtractCorpus(t *testing.T, seed int64) []*AnalyzedChange {
	t.Helper()
	c := corpus.Generate(corpus.Config{Seed: seed, Scale: 0.5, Projects: 40, ExtraProjects: 1})
	analyzed := New(Options{Workers: 2}).MineCorpus(context.Background(), c)
	if len(analyzed) <= 2*extractWindow {
		t.Fatalf("seed %d: %d changes, want more than two windows (%d)", seed, len(analyzed), 2*extractWindow)
	}
	return analyzed
}

// refDiff is Diff as the set difference of the two path sets, computed on
// every pair with no equal-paths shortcut.
func refDiff(g1, g2 *usage.Graph) (removed, added []usage.Path) {
	minus := func(a, b *usage.Graph) []usage.Path {
		in := map[string]bool{}
		for _, p := range b.Paths() {
			in[p.Key()] = true
		}
		var out []usage.Path
		for _, p := range a.Paths() {
			if !in[p.Key()] {
				out = append(out, p)
			}
		}
		return out
	}
	return change.Shortest(minus(g1, g2)), change.Shortest(minus(g2, g1))
}

// refExtraction is one change's extraction in the per-change reference.
type refExtraction struct {
	ucs   []change.UsageChange
	entry *resilience.Entry
}

// refExtractClass is the per-change class pass: every change that uses the
// class builds both versions' DAGs afresh and diffs every pair with refDiff,
// under the change's own guard.
func refExtractClass(analyzed []*AnalyzedChange, class string) []refExtraction {
	out := make([]refExtraction, len(analyzed))
	for i, a := range analyzed {
		if a == nil || !a.UsesClass(class) {
			continue
		}
		task := extractTask(a, class)
		err := resilience.Guard(task, func() error {
			oldGs := usage.BuildAll(a.Old, class, usage.DefaultDepth)
			newGs := usage.BuildAll(a.New, class, usage.DefaultDepth)
			for _, pr := range usage.Pair(oldGs, newGs, class) {
				rem, add := refDiff(pr.Old, pr.New)
				out[i].ucs = append(out[i].ucs, change.UsageChange{Class: class, Removed: rem, Added: add, Meta: a.Meta})
			}
			return nil
		})
		if err != nil {
			e := resilience.NewEntry(task, resilience.PhaseExtract, err)
			out[i].entry = &e
		}
	}
	return out
}

// entryKey is the part of a ledger entry that does not depend on the stack.
func entryKey(e resilience.Entry) string {
	return fmt.Sprintf("%s | %s | %s | %s", e.Task, e.Phase, e.Category, e.Err)
}

// checkAgainstRef runs the shared-set class pass at workers 1, 2 and 8 and
// requires the reference's usage changes slot by slot — order, paths and
// meta — and its ledger entries in order. It returns the number of entries.
func checkAgainstRef(t *testing.T, analyzed []*AnalyzedChange, class string) int {
	t.Helper()
	want := refExtractClass(analyzed, class)
	var wantEntries []string
	for _, x := range want {
		if x.entry != nil {
			wantEntries = append(wantEntries, entryKey(*x.entry))
		}
	}
	for _, w := range []int{1, 2, 8} {
		d := New(Options{Workers: w})
		_, all, ends := d.runClass(context.Background(), analyzed, class)
		start := 0
		for i, x := range want {
			got := all[start:ends[i]]
			start = ends[i]
			if len(got) == 0 && len(x.ucs) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, x.ucs) {
				t.Fatalf("%s workers=%d slot %d (%s@%s):\n got %v\nwant %v",
					class, w, i, analyzed[i].Meta.Project, analyzed[i].Meta.Commit, got, x.ucs)
			}
		}
		var gotEntries []string
		for _, e := range d.Ledger().Entries() {
			gotEntries = append(gotEntries, entryKey(e))
		}
		if !reflect.DeepEqual(gotEntries, wantEntries) {
			t.Fatalf("%s workers=%d ledger:\n got %q\nwant %q", class, w, gotEntries, wantEntries)
		}
	}
	return len(wantEntries)
}

// TestDifferentialSharedExtraction: the class pass that builds each
// distinct result's DAGs once per window and diffs every change from the
// shared sets must equal per-change extraction on freshly built graphs with
// a shortcut-free diff, for every class, at workers 1, 2 and 8.
func TestDifferentialSharedExtraction(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		analyzed := sharedExtractCorpus(t, seed)
		for _, class := range cryptoapi.TargetClasses {
			checkAgainstRef(t, analyzed, class)
		}
	}
}

// TestDifferentialSharedExtractionBuildPanic: a panic while building a
// shared DAG set falls back to live extraction for each change that needs
// it, so the ledger records exactly the per-change entries of the
// per-change pass — here one result is poisoned so every extraction that
// touches it panics — and an injected panic in the shared build alone
// loses no usage change.
func TestDifferentialSharedExtractionBuildPanic(t *testing.T) {
	analyzed := sharedExtractCorpus(t, 1)
	class := cryptoapi.Cipher

	// A Cipher use whose object argument has no object: building any DAG
	// set over this result dereferences nil. The result is shared with the
	// change that takes it as its other version.
	var victim *AnalyzedChange
	for _, a := range analyzed[extractWindow:] {
		if a != nil && a.UsesClass(class) && len(a.New.ObjsOfType(class)) > 0 {
			victim = a
			break
		}
	}
	if victim == nil {
		t.Fatal("no change of the second window uses Cipher")
	}
	obj := victim.New.ObjsOfType(class)[0]
	victim.New.Uses[obj] = append(victim.New.Uses[obj], analysisEventWithNilObj())
	sharers := 0
	for _, a := range analyzed {
		if a != nil && a.UsesClass(class) && (a.Old == victim.New || a.New == victim.New) {
			sharers++
		}
	}
	if sharers < 2 {
		t.Fatalf("poisoned result is used by %d changes, want a shared one", sharers)
	}
	if n := checkAgainstRef(t, analyzed, class); n != sharers {
		t.Errorf("poisoned result: %d ledger entries, want one per sharing change (%d)", n, sharers)
	}

	// Injected panics in every shared SecureRandom build (their tasks end
	// in " [old]" or " [new]"): every change falls back to live extraction,
	// which the injector does not touch, so the output equals the clean
	// reference and the ledger stays empty.
	var fired atomic.Int64
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if strings.HasPrefix(task, "extract "+cryptoapi.SecureRandom) && strings.HasSuffix(task, "]") {
			fired.Add(1)
			panic("shared build chaos")
		}
		return nil
	})
	if n := checkAgainstRef(t, analyzed, cryptoapi.SecureRandom); n != 0 {
		t.Errorf("injected build panics: %d ledger entries, want 0", n)
	}
	if fired.Load() == 0 {
		t.Error("no shared build ran under the injector")
	}
}

// analysisEventWithNilObj is a Cipher.init event whose first argument
// claims to be an abstract object but carries none.
func analysisEventWithNilObj() (ev analysis.Event) {
	ev.Sig = cryptoapi.MethodSig{Class: cryptoapi.Cipher, Name: "init"}
	ev.Args = []absdom.Value{{Kind: absdom.KObj}}
	return ev
}
