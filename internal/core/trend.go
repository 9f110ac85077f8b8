package core

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/rules"
)

// TrendResult compares CryptoChecker findings at the beginning and the end
// of each training project's history. The paper's thesis predicts the
// direction: because security fixes outnumber regressions, rule violations
// must decrease as histories play out — the mined fixes are exactly the
// events the checker's rules encode.
type TrendResult struct {
	Projects        int
	InitialMatching map[string]int // rule ID → projects matching initially
	FinalMatching   map[string]int // rule ID → projects matching at HEAD
	Improved        int            // projects with strictly fewer matched rules
	Worsened        int            // projects with strictly more matched rules
}

// initialSnapshot reconstructs each file's content before its first commit
// (the project as initially written).
func initialSnapshot(p *corpus.Project) map[string]string {
	files := map[string]string{}
	for path, content := range p.Files {
		files[path] = content
	}
	seen := map[string]bool{}
	for _, cm := range p.Commits {
		if !seen[cm.File] {
			seen[cm.File] = true
			files[cm.File] = cm.Old
		}
	}
	return files
}

// Trend evaluates the rule set at both ends of every training project's
// history with checkProjects: a project whose check fails is skipped and
// recorded in opts.Ledger (task "trend <project>").
func Trend(c *corpus.Corpus, opts Options) *TrendResult {
	checked := checkProjects(c.TrainingProjects(), opts, "trend", func(p *corpus.Project) []map[string]string {
		return []map[string]string{initialSnapshot(p), p.Files}
	})
	res := &TrendResult{
		Projects:        len(checked),
		InitialMatching: map[string]int{},
		FinalMatching:   map[string]int{},
	}
	for _, hits := range checked {
		initial, final := hits[0].matching, hits[1].matching
		for id := range initial {
			res.InitialMatching[id]++
		}
		for id := range final {
			res.FinalMatching[id]++
		}
		switch {
		case len(final) < len(initial):
			res.Improved++
		case len(final) > len(initial):
			res.Worsened++
		}
	}
	return res
}

// Table renders the trend comparison.
func (r *TrendResult) Table() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("History trend: rule violations at the first vs last commit (%d projects)", r.Projects),
		Header: []string{"Rule", "Initially matching", "Matching at HEAD", "Δ"},
	}
	for _, rule := range rules.All() {
		id := rule.ID
		ini, fin := r.InitialMatching[id], r.FinalMatching[id]
		t.AddRow(id, fmt.Sprint(ini), fmt.Sprint(fin), fmt.Sprintf("%+d", fin-ini))
	}
	t.AddNote("Projects with fewer matched rules at HEAD: %d; with more: %d.",
		r.Improved, r.Worsened)
	t.AddNote("The fix-dominance the pipeline mines (Figure 7) predicts Δ ≤ 0 overall.")
	return t
}
