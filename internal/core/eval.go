package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/usage"
)

// Evaluation bundles a mined-and-analyzed corpus so that several figures
// can be regenerated without re-running the expensive analysis. Each
// class's usage changes are extracted once, in the guarded pass behind
// Figure 6, and every later figure reads them from there; Figure 10's
// check is computed once and shared. All methods are safe for concurrent
// use.
type Evaluation struct {
	DiffCode *DiffCode
	Corpus   *corpus.Corpus
	Analyzed []*AnalyzedChange

	classMu  sync.Mutex
	classRes map[string]*classRun

	fig10Once sync.Once
	fig10     *Figure10Result
}

// classRun is one class's extract-once result: the filtering outcome plus
// every usage change the pass extracted, grouped by entry of Analyzed.
type classRun struct {
	ClassPipelineResult
	all  []change.UsageChange
	ends []int
}

// of returns the usage changes extracted from Analyzed[i] — empty when the
// change does not use the class or its extraction was skipped.
func (r *classRun) of(i int) []change.UsageChange {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.all[start:r.ends[i]]
}

// NewEvaluationCtx mines and analyzes the corpus once. Under a traced ctx
// the mining run attaches its span tree (mine → analyze → per-change
// spans) to the current span.
func NewEvaluationCtx(ctx context.Context, c *corpus.Corpus, opts Options) *Evaluation {
	// The evaluation harness re-classifies changes against both raw analysis
	// results (Figure 7 needs Old/New), which warm artifact hits do not
	// carry — so the harness always analyzes live.
	opts.Artifacts = nil
	d := New(opts)
	return &Evaluation{
		DiffCode: d,
		Corpus:   c,
		Analyzed: d.MineCorpus(ctx, c),
	}
}

// classResult runs the class pipeline over Analyzed the first time a class
// is asked for and keeps the result.
func (e *Evaluation) classResult(class string) *classRun {
	e.classMu.Lock()
	defer e.classMu.Unlock()
	if r, ok := e.classRes[class]; ok {
		return r
	}
	if e.classRes == nil {
		e.classRes = map[string]*classRun{}
	}
	r := &classRun{}
	r.ClassPipelineResult, r.all, r.ends = e.DiffCode.runClass(context.Background(), e.Analyzed, class)
	e.classRes[class] = r
	return r
}

// ---------------------------------------------------------------------------
// Figure 6 — usage changes per target class after each filter stage
// ---------------------------------------------------------------------------

// Figure6 regenerates the filtering table.
func (e *Evaluation) Figure6() *report.Table {
	t := &report.Table{
		Title:  "Figure 6: usage changes per target API class after abstraction and filtering",
		Header: []string{"Target API Class", "Usage Changes", "fsame", "fadd", "frem", "fdup"},
	}
	totalAll, totalKept := 0, 0
	for _, class := range cryptoapi.TargetClasses {
		r := e.classResult(class)
		s := r.Stats
		t.AddRow(class, fmt.Sprint(s.Total), fmt.Sprint(s.AfterSame),
			fmt.Sprint(s.AfterAdd), fmt.Sprint(s.AfterRem), fmt.Sprint(s.AfterDup))
		totalAll += s.Total
		totalKept += s.AfterDup
	}
	if totalAll > 0 {
		t.AddNote("Filtered as non-semantic or duplicate: %s of %d usage changes.",
			report.Pct(totalAll-totalKept, totalAll), totalAll)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 7 — security fixes vs buggy changes under CL1–CL5
// ---------------------------------------------------------------------------

// Figure7Row is the per-rule, per-classification filter attrition.
type Figure7Row struct {
	Rule      string
	Type      rules.ChangeType
	Total     int
	ByFsame   int
	ByFadd    int
	ByFrem    int
	ByFdup    int
	Remaining int
}

// figure7Types is the row order of each rule's block in Figure 7.
var figure7Types = []rules.ChangeType{rules.SecurityFix, rules.BuggyChange, rules.NonSemantic}

// Figure7Data computes the classification table backing Figure 7: every
// change that yielded usage changes of a CryptoLint rule's class is
// classified once against that rule, and its usage changes are charged to
// the filter that removes them; the survivors of fsame, fadd and frem are
// deduplicated per (rule, type) for fdup.
func (e *Evaluation) Figure7Data() []Figure7Row {
	var out []Figure7Row
	for _, cl := range rules.CryptoLint() {
		r := e.classResult(cl.Clauses[0].Class)
		var rows [3]Figure7Row // indexed by rules.ChangeType
		for _, typ := range figure7Types {
			rows[typ] = Figure7Row{Rule: cl.ID, Type: typ}
		}
		type dupKey struct {
			typ rules.ChangeType
			key string
		}
		seen := map[dupKey]bool{}
		for i, a := range e.Analyzed {
			ucs := r.of(i)
			if len(ucs) == 0 {
				continue
			}
			typ := rules.Classify(cl, a.Old, a.New, rules.Context{})
			row := &rows[typ]
			for j := range ucs {
				c := &ucs[j]
				row.Total++
				switch {
				case c.IsSame():
					row.ByFsame++
				case c.IsAddOnly():
					row.ByFadd++
				case c.IsRemoveOnly():
					row.ByFrem++
				default:
					k := dupKey{typ, c.Key()}
					if seen[k] {
						row.ByFdup++
					} else {
						seen[k] = true
						row.Remaining++
					}
				}
			}
		}
		for _, typ := range figure7Types {
			out = append(out, rows[typ])
		}
	}
	return out
}

// Figure7 renders the classification table.
func (e *Evaluation) Figure7() *report.Table {
	t := &report.Table{
		Title:  "Figure 7: security fixes, buggy changes, and non-semantic changes under CL1-CL5",
		Header: []string{"Rule", "Type", "Total", "fsame", "fadd", "frem", "fdup", "Remaining"},
	}
	rows := e.Figure7Data()
	var fixes, bugs int
	for _, r := range rows {
		t.AddRow(r.Rule, r.Type.String(), fmt.Sprint(r.Total), fmt.Sprint(r.ByFsame),
			fmt.Sprint(r.ByFadd), fmt.Sprint(r.ByFrem), fmt.Sprint(r.ByFdup),
			fmt.Sprint(r.Remaining))
		switch r.Type {
		case rules.SecurityFix:
			fixes += r.Total
		case rules.BuggyChange:
			bugs += r.Total
		}
	}
	if fixes+bugs > 0 {
		t.AddNote("Rule-flipping code changes that are security fixes: %s (the paper counts pre-dedup changes).",
			report.Pct(fixes, fixes+bugs))
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 8 — dendrogram for the Cipher class
// ---------------------------------------------------------------------------

// Figure8Result carries the dendrogram and the detected ECB cluster.
type Figure8Result struct {
	Survivors  []change.UsageChange
	Dendrogram *cluster.Node
	// ECBCluster indexes survivors that form the "stop using ECB" cluster
	// eliciting rule R7.
	ECBCluster []int
	Rendering  string
}

// Figure8 clusters the surviving Cipher usage changes and locates the
// ECB→CBC/GCM cluster of the paper's Figure 8.
func (e *Evaluation) Figure8() *Figure8Result {
	r := e.classResult(cryptoapi.Cipher)
	root := e.DiffCode.ClusterChanges(context.Background(), r.Survivors)
	res := &Figure8Result{Survivors: r.Survivors, Dendrogram: root}
	if root == nil {
		return res
	}
	for _, cl := range root.Cut(0.75) {
		ecb := 0
		for _, i := range cl {
			if removesECB(r.Survivors[i]) {
				ecb++
			}
		}
		if ecb*2 > len(cl) && ecb >= 2 {
			res.ECBCluster = cl
			break
		}
	}
	res.Rendering = cluster.Render(root, func(i int) string {
		c := r.Survivors[i]
		return fmt.Sprintf("[%s] %s", c.Meta.Commit, summarize(c))
	})
	return res
}

// removesECB reports whether a usage change removes an (explicit or
// implicit) ECB-mode getInstance feature — "AES", "AES/ECB/...", or bare
// "DES" all run the block cipher in ECB.
func removesECB(c change.UsageChange) bool {
	for _, p := range c.Removed {
		if len(p) >= 3 && p[1] == "getInstance" {
			if s, ok := argString(p[2]); ok {
				if cryptoapi.ParseTransformation(s).EffectiveMode() == "ECB" {
					return true
				}
			}
		}
	}
	return false
}

// argString extracts the quoted payload of an `argN:"..."` label.
func argString(label string) (string, bool) {
	i := strings.Index(label, `:"`)
	if i < 0 || !strings.HasSuffix(label, `"`) {
		return "", false
	}
	return label[i+2 : len(label)-1], true
}

// summarize renders a usage change on one line.
func summarize(c change.UsageChange) string {
	var parts []string
	for _, p := range c.Removed {
		parts = append(parts, "-"+strings.Join(p[1:], " "))
	}
	for _, p := range c.Added {
		parts = append(parts, "+"+strings.Join(p[1:], " "))
	}
	s := strings.Join(parts, "  ")
	if len(s) > 140 {
		s = s[:137] + "..."
	}
	return s
}

// ---------------------------------------------------------------------------
// Figure 9 — the elicited rules
// ---------------------------------------------------------------------------

// Figure9 renders the rule registry.
func Figure9() *report.Table {
	t := &report.Table{
		Title:  "Figure 9: security rules derived from security fixes applied to the Java Crypto API",
		Header: []string{"ID", "Description", "Rule"},
	}
	for _, r := range rules.All() {
		t.AddRow(r.ID, r.Description, r.Formula)
	}
	return t
}

// ---------------------------------------------------------------------------
// Figure 10 — rule violations across projects
// ---------------------------------------------------------------------------

// Figure10Row is the per-rule applicability/matching outcome.
type Figure10Row struct {
	Rule       string
	Applicable int
	Matching   int
}

// Figure10Result holds the checker evaluation.
type Figure10Result struct {
	Projects           int
	Rows               []Figure10Row
	ViolatedAtLeastOne int
}

// Figure10 runs CryptoChecker over every project snapshot, once per
// Evaluation; every call returns the same (read-only) result. A project
// whose check fails is skipped and recorded in the evaluation's ledger.
func (e *Evaluation) Figure10() *Figure10Result {
	e.fig10Once.Do(func() {
		opts := e.DiffCode.Options()
		opts.Ledger = e.DiffCode.Ledger()
		e.fig10 = CheckCorpus(e.Corpus, opts)
	})
	return e.fig10
}

// CheckCorpus evaluates the 13 rules over all project snapshots of a
// corpus (training + held-out) with checkProjects: forks are excluded, as
// in the paper's project selection (§6.1: "excluding forks"), and a
// project whose check fails is skipped, recorded in opts.Ledger and left
// out of the result.
func CheckCorpus(c *corpus.Corpus, opts Options) *Figure10Result {
	all := rules.All()
	checked := checkProjects(c.Projects, opts, "check", func(p *corpus.Project) []map[string]string {
		return []map[string]string{p.Files}
	})
	res := &Figure10Result{Projects: len(checked)}
	for _, r := range all {
		row := Figure10Row{Rule: r.ID}
		for _, hits := range checked {
			if hits[0].applicable[r.ID] {
				row.Applicable++
			}
			if hits[0].matching[r.ID] {
				row.Matching++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, hits := range checked {
		if len(hits[0].matching) > 0 {
			res.ViolatedAtLeastOne++
		}
	}
	return res
}

// ruleHits records which of the 13 rules one program is applicable to and
// which it matches.
type ruleHits struct {
	applicable, matching map[string]bool
}

// checkProjects checks the versions snapshots returns of every non-fork
// project against the 13 rules, on the worker pool (one project per task,
// ordered fan-in). Each project runs under its own guard, task "<verb>
// <project>": a panic skips the project, which is recorded in opts.Ledger
// (phase analyze, in project order at any worker count) and left out of
// the result. The rest come back in project order, one ruleHits per
// snapshot. Programs are parsed and interpreted live — no artifact store
// and no budget: a whole project is not the unit the per-change budget
// is sized for.
func checkProjects(projects []*corpus.Project, opts Options, verb string, snapshots func(*corpus.Project) []map[string]string) [][]ruleHits {
	opts = opts.withDefaults()
	all := rules.All()
	var kept []*corpus.Project
	for _, p := range projects {
		if p.ForkOf == "" {
			kept = append(kept, p)
		}
	}
	type outcome struct {
		hits []ruleHits
		task string
		err  error
	}
	outcomes := parallel.Map(opts.pool(), context.Background(), len(kept), func(i int) outcome {
		p := kept[i]
		o := outcome{task: verb + " " + p.Name}
		o.err = resilience.Guard(o.task, func() error {
			rctx := ContextOf(p)
			for _, files := range snapshots(p) {
				res := analysis.Analyze(analysis.ParseProgram(files), opts.Analysis)
				h := ruleHits{applicable: map[string]bool{}, matching: map[string]bool{}}
				for _, r := range all {
					if r.Applicable(res, rctx) {
						h.applicable[r.ID] = true
					}
					if ok, _ := r.Matches(res, rctx); ok {
						h.matching[r.ID] = true
					}
				}
				o.hits = append(o.hits, h)
			}
			return nil
		})
		return o
	})
	var out [][]ruleHits
	for i, o := range outcomes {
		if o.err != nil {
			e := resilience.NewEntry(o.task, resilience.PhaseAnalyze, o.err)
			e.Meta = map[string]string{"project": kept[i].Name}
			opts.Ledger.Record(e)
			continue
		}
		out = append(out, o.hits)
	}
	return out
}

// Table renders the Figure 10 result.
func (r *Figure10Result) Table() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Figure 10: rule violations for the %d analyzed projects", r.Projects),
		Header: []string{"Rule", "Applicable (% of total)", "Matching (% of appl.)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Rule, report.Count(row.Applicable, r.Projects),
			report.Count(row.Matching, row.Applicable))
	}
	t.AddNote("Projects violating at least one rule: %s.",
		report.Pct(r.ViolatedAtLeastOne, r.Projects))
	return t
}

// ---------------------------------------------------------------------------
// Headline numbers (§1 / §6 claims)
// ---------------------------------------------------------------------------

// Headline summarizes the paper's three headline claims against this run.
type Headline struct {
	FilteredPct    float64 // >99% of usage changes filtered
	FixPct         float64 // >80% of rule-flipping semantic changes are fixes
	ViolatedPct    float64 // >57% of projects violate ≥1 rule
	TotalChanges   int
	TotalSurviving int
}

// ComputeHeadline derives the headline numbers from figure runs.
func (e *Evaluation) ComputeHeadline(fig10 *Figure10Result) Headline {
	h := Headline{}
	for _, class := range cryptoapi.TargetClasses {
		s := e.classResult(class).Stats
		h.TotalChanges += s.Total
		h.TotalSurviving += s.AfterDup
	}
	if h.TotalChanges > 0 {
		h.FilteredPct = 100 * float64(h.TotalChanges-h.TotalSurviving) / float64(h.TotalChanges)
	}
	// The paper's ">80% are security fixes" claim counts rule-flipping code
	// changes before deduplication (its Figure 7 Total column).
	var fixes, bugs int
	for _, row := range e.Figure7Data() {
		switch row.Type {
		case rules.SecurityFix:
			fixes += row.Total
		case rules.BuggyChange:
			bugs += row.Total
		}
	}
	if fixes+bugs > 0 {
		h.FixPct = 100 * float64(fixes) / float64(fixes+bugs)
	}
	if fig10 != nil && fig10.Projects > 0 {
		h.ViolatedPct = 100 * float64(fig10.ViolatedAtLeastOne) / float64(fig10.Projects)
	}
	return h
}

// SortedSurvivors returns the surviving changes of a class, ordered by
// provenance for stable output.
func (e *Evaluation) SortedSurvivors(class string) []change.UsageChange {
	r := e.classResult(class)
	out := append([]change.UsageChange{}, r.Survivors...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Meta.Project != out[j].Meta.Project {
			return out[i].Meta.Project < out[j].Meta.Project
		}
		return out[i].Meta.Commit < out[j].Meta.Commit
	})
	return out
}

// AnalyzeSource runs the analyzer over one source under the pipeline's
// options — analyzer limits, Metrics and the summary table — inside the
// guard, on a budget of Options.BudgetSteps/BudgetWall tightened by ctx's
// deadline and cancellation. A panic or an exhausted budget comes back as
// an error.
func AnalyzeSource(ctx context.Context, src string, opts Options) (*analysis.Result, error) {
	opts = opts.withDefaults()
	var res *analysis.Result
	err := resilience.Guard("analyze source", func() error {
		aopts := opts.Analysis
		aopts.Budget = resilience.NewBudgetContext(ctx, opts.BudgetSteps, opts.BudgetWall)
		prog := analysis.ParseProgramStoreCtx(ctx, map[string]string{"Main.java": src}, nil, nil, nil)
		var err error
		res, err = analysis.AnalyzeBudgetedCtx(ctx, prog, aopts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BuildDAGs analyzes one source as AnalyzeSource does and builds the usage
// DAGs of the given class, one per allocation site.
func BuildDAGs(ctx context.Context, src string, class string, opts Options) ([]*usage.Graph, error) {
	res, err := AnalyzeSource(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	return usage.BuildAll(res, class, opts.withDefaults().Depth), nil
}
