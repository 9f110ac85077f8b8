// Package core wires the substrates into the two systems of the paper:
// DiffCode (mine → analyze → abstract → diff → filter → cluster, §5) and
// CryptoChecker (the rule checker of §6.4). The evaluation harness that
// regenerates the paper's figures lives in eval.go.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/usage"
	"repro/internal/witness"
)

// Options configures the DiffCode pipeline.
type Options struct {
	// Depth bounds the usage-DAG expansion (paper default: 5).
	Depth int
	// Analysis forwards analyzer limits.
	Analysis analysis.Options
	// MinCommits filters toy projects during mining (paper: 30).
	MinCommits int
	// Workers sizes the worker pool behind batch analysis, clustering, and
	// checking (default: GOMAXPROCS). Workers == 1 is the exact serial
	// path: no goroutines, no pool telemetry, byte-identical output to the
	// single-threaded pipeline. Any worker count produces identical results
	// (the parallel layer is deterministic); only wall-clock time changes.
	Workers int
	// BudgetSteps caps the abstract-interpretation steps spent on one mined
	// change (both versions share the budget); 0 means unlimited. Changes
	// that exhaust it are skipped and recorded in the ledger.
	BudgetSteps int64
	// BudgetWall caps the wall-clock time spent on one mined change;
	// 0 means unlimited.
	BudgetWall time.Duration
	// FailFast stops a batch analysis after the first recorded failure.
	FailFast bool
	// MaxErrors aborts a batch once this many failures have been recorded
	// (0 means unlimited).
	MaxErrors int
	// Ledger receives the skip-and-record entries of this pipeline; nil
	// means New creates a private one (reachable via DiffCode.Ledger).
	Ledger *resilience.Ledger
	// Metrics receives stage telemetry (spans, counters, histograms) for
	// the whole pipeline; nil disables all instrumentation at the cost of
	// one nil check per probe.
	Metrics *obs.Registry
	// DisableDistCache turns off the memoized distance engine behind
	// clustering and elicitation (the -dist-cache CLI toggle). The zero
	// value keeps the cache on; results are bit-identical either way — the
	// cache only changes how often the distance kernels run.
	DisableDistCache bool
	// Artifacts, when non-nil, is the content-addressed artifact store
	// behind the incremental pipeline (the -cache-dir CLI toggle): parse
	// results, per-change analysis extractions, and check outcomes are
	// cached by content hash and reused across runs. Nil (the default)
	// disables artifact caching entirely — the exact pre-artifact pipeline.
	// Output is byte-identical with the store on or off; only how often
	// the parser, interpreter, and checker run changes.
	Artifacts *artifact.Store
	// Summaries, when non-nil, is the shared summary table of this run;
	// nil (the default) makes New/NewChecker build one over
	// Artifacts/Metrics. A server passes one process-lifetime table so
	// requests share summaries in memory. The table is an exact memo:
	// output is the same whichever table is attached.
	Summaries *summary.Table
}

// pool builds the worker pool the pipeline's batch stages dispatch onto.
// A fresh pool is a cheap two-word struct; the workers themselves only
// exist while a batch is in flight.
func (o Options) pool() *parallel.Pool { return parallel.New(o.Workers, o.Metrics) }

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = usage.DefaultDepth
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Analysis.Metrics == nil {
		o.Analysis.Metrics = o.Metrics
	}
	if o.Summaries == nil {
		o.Summaries = summary.NewTable(o.Artifacts, o.Metrics)
	}
	o.Analysis.Summaries = o.Summaries
	return o
}

// DiffCode is the end-to-end system of §5.
type DiffCode struct {
	opts   Options
	ledger *resilience.Ledger
	engine *distcache.Engine
	// optFP fingerprints the result-shaping options once; it prefixes
	// every analysis-artifact key this instance derives.
	optFP string
}

// New returns a DiffCode instance.
func New(opts Options) *DiffCode {
	opts = opts.withDefaults()
	l := opts.Ledger
	if l == nil {
		l = resilience.NewLedger()
	}
	d := &DiffCode{opts: opts, ledger: l, optFP: optFingerprint(opts)}
	if !opts.DisableDistCache {
		d.engine = distcache.New(opts.Metrics)
	}
	return d
}

// Options returns the effective configuration.
func (d *DiffCode) Options() Options { return d.opts }

// Ledger returns the failure ledger recording every change or project the
// pipeline skipped instead of dying on.
func (d *DiffCode) Ledger() *resilience.Ledger { return d.ledger }

// AnalyzedChange is a mined code change with both versions analyzed. The
// raw sources are retained so the concrete patch behind a usage change can
// be inspected (the paper's manual elicitation step).
type AnalyzedChange struct {
	Meta   change.Meta
	Kind   corpus.CommitKind
	OldSrc string
	NewSrc string
	Old    *analysis.Result
	New    *analysis.Result
	// UsesOld/UsesNew record which target classes each version mentions
	// (pre-filter granularity, before abstraction).
	UsesOld map[string]bool
	UsesNew map[string]bool
	// art holds the cached per-class extraction when the change resolved
	// through the artifact store; on a warm hit Old/New stay nil and
	// ExtractClass instantiates from here instead.
	art *changeArtifact
}

// UsesClass reports whether either version uses the class.
func (a *AnalyzedChange) UsesClass(class string) bool {
	return a.UsesOld[class] || a.UsesNew[class]
}

// taskName renders the ledger/guard identity of a mined change.
func taskName(cc mining.CodeChange) string {
	m := cc.Meta
	switch {
	case m.Project != "" && m.Commit != "":
		return fmt.Sprintf("change %s@%s:%s", m.Project, m.Commit, m.File)
	case m.File != "":
		return "change " + m.File
	default:
		return "change"
	}
}

// AnalyzeChange parses and analyzes one code change. A panic anywhere in
// parsing or analysis, or an exhausted per-change budget, is returned as an
// error instead of propagating. The per-change budget is tightened by ctx's
// deadline and the analysis aborts early (resilience.ErrCanceled) once ctx
// is canceled; this is the request-scoped entry point behind the analysis
// server's /v1/analyze. When ctx carries a trace span, the parse and the
// interpreter runs appear as child spans.
func (d *DiffCode) AnalyzeChange(ctx context.Context, cc mining.CodeChange) (*AnalyzedChange, error) {
	a, _, err := d.analyzeChange(ctx, cc, nil)
	return a, err
}

// analyzeChange is AnalyzeChange plus the pipeline phase a failure belongs
// to (parse vs analyze) for ledger bookkeeping. When ctx carries a trace
// span, the parse and the interpreter runs appear as child spans and a
// failure annotates ctx's span with its ledger category. With an artifact
// store configured the change resolves through analyzedOutcome — a warm
// hit skips parse and interpretation entirely (and so creates none of
// their spans) while producing an identical AnalyzedChange downstream.
// Inside a batch, sh is the change's view of the batch's shared sources
// (nil for a lone change).
func (d *DiffCode) analyzeChange(ctx context.Context, cc mining.CodeChange, sh *changeShare) (*AnalyzedChange, resilience.Phase, error) {
	var a *AnalyzedChange
	if d.opts.Artifacts == nil {
		var phase resilience.Phase
		var err error
		a, phase, err = d.analyzeChangeLive(ctx, cc, sh)
		if err != nil {
			trace.FromContext(ctx).Annotate(string(resilience.Categorize(err)))
			return nil, phase, err
		}
	} else {
		oc, phase, err := d.analyzedOutcome(ctx, cc, sh)
		if err != nil {
			trace.FromContext(ctx).Annotate(string(resilience.Categorize(err)))
			return nil, phase, err
		}
		a = &AnalyzedChange{
			Meta:   cc.Meta,
			Kind:   cc.Kind,
			OldSrc: cc.Old,
			NewSrc: cc.New,
			Old:    oc.old,
			New:    oc.new,
			art:    oc.art,
		}
	}
	d.opts.Metrics.Counter("analysis.changes_analyzed").Inc()
	a.UsesOld, a.UsesNew = map[string]bool{}, map[string]bool{}
	for _, c := range cryptoapi.TargetClasses {
		a.UsesOld[c] = mining.UsesClass(cc.Old, c)
		a.UsesNew[c] = mining.UsesClass(cc.New, c)
	}
	return a, "", nil
}

// sourceShare is one distinct source text of an AnalyzeAll batch. Its
// owner, the first change in input order (old before new) that mentions
// the text, parses and interprets it; every other change mentioning it
// waits on done and reuses the owner's result.
type sourceShare struct {
	done chan struct{}
	once sync.Once
	// res is the owner's completed result, nil when the owner produced
	// none (it failed, or resolved from the artifact store); steps is what
	// that analysis charged to the owner's budget.
	res   *analysis.Result
	steps int64
}

// publish records the owner's outcome and wakes the waiters; only the
// first call counts.
func (s *sourceShare) publish(res *analysis.Result, steps int64) {
	s.once.Do(func() {
		s.res, s.steps = res, steps
		close(s.done)
	})
}

// changeShare is one change's view of its batch's shared sources: the
// share of each version (old, new) and whether this change owns it.
type changeShare struct {
	src [2]*sourceShare
	own [2]bool
	// first is the share of the batch's first change with the same (old,
	// new) pair. Such duplicates resolve through one artifact-store flight,
	// whose leader may be any of them, so the leader analyzes as first.
	first *changeShare
}

// shareSources assigns every distinct source text of a batch its owner
// before dispatch. The pool dispatches changes in input order, so an owner
// is always dispatched before the changes that wait on it, and an owner
// analyzes what it owns before it waits on anything.
func shareSources(ccs []mining.CodeChange) []changeShare {
	bySrc := make(map[string]*sourceShare, len(ccs)+1)
	byPair := make(map[[2]*sourceShare]*changeShare, len(ccs))
	shares := make([]changeShare, len(ccs))
	for i, cc := range ccs {
		sh := &shares[i]
		for v, src := range [2]string{cc.Old, cc.New} {
			s := bySrc[src]
			if s == nil {
				s = &sourceShare{done: make(chan struct{})}
				bySrc[src] = s
				sh.own[v] = true
			}
			sh.src[v] = s
		}
		sh.first = byPair[sh.src]
		if sh.first == nil {
			sh.first = sh
			byPair[sh.src] = sh
		}
	}
	return shares
}

// release publishes "no result" for every owned text the change has not
// published, so its waiters fall back to live analysis instead of blocking.
func (sh *changeShare) release() {
	for v, s := range sh.src {
		if sh.own[v] {
			s.publish(nil, 0)
		}
	}
}

// analyzeChangeLive parses and interprets both versions of one change —
// the storeless pipeline body, also run (under single-flight) on an
// artifact miss. Callers fill the Uses maps and count changes_analyzed.
//
// With a share (inside a batch) the change parses and interprets only the
// versions it owns, then takes the owners' completed results for the
// others, charging their recorded steps to its own budget with StepN. The
// budget fails the change exactly when running every version would, since
// steps are a function of the source alone. A version whose owner has no
// completed result runs live. Every change runs its own parse and analyze
// guards under its own task name either way.
func (d *DiffCode) analyzeChangeLive(ctx context.Context, cc mining.CodeChange, sh *changeShare) (*AnalyzedChange, resilience.Phase, error) {
	task := taskName(cc)
	srcs := [2]string{cc.Old, cc.New}
	want := [2]bool{true, true}
	if sh != nil {
		want = sh.own
	}
	progs, err := d.parseVersions(ctx, task, srcs, want)
	if err != nil {
		return nil, resilience.PhaseParse, err
	}
	// Both versions share one budget: the unit of skipping is the change.
	budget := resilience.NewBudgetContext(ctx, d.opts.BudgetSteps, d.opts.BudgetWall)
	var res [2]*analysis.Result
	var live [2]bool
	err = resilience.Guard(task, func() error {
		if err := d.interpretVersions(ctx, task, progs, budget, &res, sh); err != nil {
			return err
		}
		if sh == nil {
			return nil
		}
		for v, s := range sh.src {
			if sh.own[v] {
				continue
			}
			<-s.done
			if s.res == nil {
				live[v] = true
				continue
			}
			if err := budget.StepN(s.steps); err != nil {
				return err
			}
			res[v] = s.res
		}
		return nil
	})
	if err != nil {
		return nil, resilience.PhaseAnalyze, err
	}
	if live[0] || live[1] {
		if progs, err = d.parseVersions(ctx, task, srcs, live); err != nil {
			return nil, resilience.PhaseParse, err
		}
		err = resilience.Guard(task, func() error {
			return d.interpretVersions(ctx, task, progs, budget, &res, nil)
		})
		if err != nil {
			return nil, resilience.PhaseAnalyze, err
		}
	}
	return &AnalyzedChange{
		Meta:   cc.Meta,
		Kind:   cc.Kind,
		OldSrc: cc.Old,
		NewSrc: cc.New,
		Old:    res[0],
		New:    res[1],
	}, "", nil
}

// parseVersions parses the wanted versions of a change under the change's
// parse guard; the "parse" stage span records only changes that parse.
func (d *DiffCode) parseVersions(ctx context.Context, task string, srcs [2]string, want [2]bool) (progs [2]*analysis.Program, err error) {
	reg := d.opts.Metrics
	var sp obs.Span
	if want[0] || want[1] {
		sp = reg.StartSpanTask("parse", task)
	}
	err = resilience.Guard(task+" [parse]", func() error {
		for v, src := range srcs {
			if want[v] {
				progs[v] = analysis.ParseProgramStoreCtx(ctx, map[string]string{"Main.java": src}, reg, nil, nil)
			}
		}
		return nil
	})
	sp.End()
	return progs, err
}

// interpretVersions interprets the parsed versions in order on the
// change's budget. With a share, every parsed version is one the change
// owns, and each completed result is published to it. The "analyze" stage
// span records only changes that interpret.
func (d *DiffCode) interpretVersions(ctx context.Context, task string, progs [2]*analysis.Program, budget *resilience.Budget, res *[2]*analysis.Result, sh *changeShare) error {
	if progs[0] == nil && progs[1] == nil {
		return nil
	}
	sp := d.opts.Metrics.StartSpanTask("analyze", task)
	defer sp.End()
	aopts := d.opts.Analysis
	aopts.Budget = budget
	for v, prog := range progs {
		if prog == nil {
			continue
		}
		before := budget.Used()
		r, err := analysis.AnalyzeBudgetedCtx(ctx, prog, aopts)
		if err != nil {
			return err
		}
		res[v] = r
		if sh != nil {
			sh.src[v].publish(r, budget.Used()-before)
		}
	}
	return nil
}

// record files a failure for a mined change in the ledger.
func (d *DiffCode) record(cc mining.CodeChange, phase resilience.Phase, err error) {
	e := resilience.NewEntry(taskName(cc), phase, err)
	e.Meta = map[string]string{
		"project": cc.Meta.Project,
		"commit":  cc.Meta.Commit,
		"file":    cc.Meta.File,
	}
	d.ledger.Record(e)
}

// AnalyzeAll analyzes a batch of code changes on the pipeline's worker
// pool, preserving input order (slot i holds change i — the pool's ordered
// fan-in). Failing changes are skipped and recorded in the ledger, leaving
// a nil slot at their index; Options.FailFast and Options.MaxErrors abort
// the remainder of the batch via cooperative cancellation (no new change is
// dispatched once the failure threshold is reached; in-flight changes
// finish and keep their slots). Workers == 1 runs the exact serial path.
// Each distinct source text of the batch is parsed and interpreted once,
// by its owner (see shareSources); the results are those of analyzing
// every change alone. When tctx carries a span, the batch runs under an
// "analyze" child with one "change[i]" span per change (ordered by input
// index at any worker count), each annotated with its ledger failure
// category when the change is skipped. Only the span propagates from tctx
// — the batch keeps its own cancellation lifecycle.
func (d *DiffCode) AnalyzeAll(tctx context.Context, ccs []mining.CodeChange) []*AnalyzedChange {
	d.opts.Metrics.Gauge("pipeline.workers").Set(int64(d.opts.Workers))
	out := make([]*AnalyzedChange, len(ccs))
	bctx, bsp := trace.Start(tctx, "analyze")
	defer bsp.End()
	ctx, cancel := context.WithCancel(trace.Detach(bctx))
	defer cancel()
	var failures atomic.Int64
	shares := shareSources(ccs)
	// Budgets inside the batch deliberately stay unbound from the cancel
	// context: fail-fast/max-errors stop dispatching new changes, but
	// in-flight changes finish and keep their slots (the documented abort
	// semantics, and what keeps aborted-run output deterministic). Detach
	// strips the fail-fast cancellation before it reaches a change's budget
	// while keeping the task span as the parent of the change's spans.
	d.opts.pool().ForEachCtx(ctx, "change", len(ccs), func(cctx context.Context, i int) {
		defer shares[i].release()
		a, phase, err := d.analyzeChange(trace.Detach(cctx), ccs[i], &shares[i])
		if err != nil {
			d.record(ccs[i], phase, err)
			n := failures.Add(1)
			if d.opts.FailFast || (d.opts.MaxErrors > 0 && n >= int64(d.opts.MaxErrors)) {
				cancel()
			}
			return
		}
		out[i] = a
	})
	return out
}

// ExtractClass derives the usage changes of one target class from an
// analyzed change. A change that resolved through the artifact store
// instantiates its cached extraction (stamping this change's meta);
// otherwise the extraction builds both versions' usage DAGs and runs live
// on the analysis results.
func (d *DiffCode) ExtractClass(a *AnalyzedChange, class string) []change.UsageChange {
	d.opts.Metrics.Counter("extract.runs").Inc()
	if a.art != nil {
		return a.art.instantiate(class, a.Meta)
	}
	d.opts.Metrics.Counter("extract.dag_builds").Add(2)
	return change.Extract(a.Old, a.New, class, d.opts.Depth, a.Meta)
}

// MineCorpus runs the full mining front-end over a corpus: collect code
// changes, analyze both versions of each, in parallel. Changes the
// resilience layer skipped are dropped from the result (they are recorded
// in the ledger), so downstream stages see only analyzed changes. Under a
// traced ctx the collection runs under a "mine" child span carrying the
// mined-change count, and the batch analysis under AnalyzeAll's "analyze"
// span.
func (d *DiffCode) MineCorpus(ctx context.Context, c *corpus.Corpus) []*AnalyzedChange {
	sp := d.opts.Metrics.StartSpan("mine")
	_, msp := trace.Start(ctx, "mine")
	ccs := mining.Collect(c, mining.Options{MinCommits: d.opts.MinCommits, Metrics: d.opts.Metrics})
	msp.SetAttr("changes", fmt.Sprint(len(ccs)))
	msp.End()
	sp.End()
	analyzed := d.AnalyzeAll(ctx, ccs)
	out := make([]*AnalyzedChange, 0, len(analyzed))
	for _, a := range analyzed {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// ClassPipelineResult is the per-class outcome of the filtering pipeline.
type ClassPipelineResult struct {
	Class     string
	Stats     change.FilterStats
	Survivors []change.UsageChange
}

// RunClass extracts, filters, and returns the semantic usage changes of one
// target class across analyzed changes. Extraction runs on the pipeline's
// worker pool with ordered fan-in. Nil slots (changes the resilience layer
// skipped) are ignored; a panic while extracting one change skips that
// change and records it, rather than aborting the class. Under a traced
// ctx the extract and filter stages appear as child spans carrying the
// class name and survivor counts.
func (d *DiffCode) RunClass(ctx context.Context, analyzed []*AnalyzedChange, class string) ClassPipelineResult {
	r, _, _ := d.runClass(ctx, analyzed, class)
	return r
}

// runClass is RunClass that also returns every extracted usage change
// before filtering, grouped by input slot: all[ends[i-1]:ends[i]] came from
// analyzed[i] (empty for a nil slot, a change not using the class, or one
// whose extraction was skipped).
func (d *DiffCode) runClass(ctx context.Context, analyzed []*AnalyzedChange, class string) (r ClassPipelineResult, all []change.UsageChange, ends []int) {
	reg := d.opts.Metrics
	ends = make([]int, len(analyzed))
	_, xsp := trace.Start(ctx, "extract")
	xsp.SetAttr("class", class)
	esp := reg.StartSpanTask("extract", class)
	xs := d.extractClass(analyzed, class)
	// Fan-in in index order: the usage changes and the ledger entries come
	// out as the serial loop produced them, at any worker count.
	for i, x := range xs {
		if x.err != nil {
			d.ledger.Record(resilience.NewEntry(x.task, resilience.PhaseExtract, x.err))
		}
		all = append(all, x.ucs...)
		ends[i] = len(all)
	}
	esp.End()
	xsp.SetAttr("usage_changes", fmt.Sprint(len(all)))
	xsp.End()
	reg.Counter("extract.usage_changes").Add(int64(len(all)))
	_, psp := trace.Start(ctx, "filter")
	psp.SetAttr("class", class)
	fsp := reg.StartSpanTask("filter", class)
	kept, stats := change.Filter(all)
	fsp.End()
	psp.SetAttr("survivors", fmt.Sprint(len(kept)))
	psp.End()
	reg.Counter("filter.usage_changes").Add(int64(stats.Total))
	reg.Counter("filter.survivors").Add(int64(len(kept)))
	return ClassPipelineResult{Class: class, Stats: stats, Survivors: kept}, all, ends
}

// extractWindow is how many consecutive changes of a class pass share one
// generation of usage-DAG sets. Consecutive changes of a file share
// versions, so a window sees most of its reuse inside itself or from the
// window before; bounding the generation bounds the DAGs alive at once.
const extractWindow = 256

// extraction is one change's outcome in a class pass: its usage changes,
// or the failure its guard recorded under task.
type extraction struct {
	ucs  []change.UsageChange
	task string
	err  error
}

// dagSet is the usage DAGs of one analysis result for the class of a pass;
// ok is false when building them failed.
type dagSet struct {
	gs []*usage.Graph
	ok bool
}

// extractClass extracts one class from every analyzed change, slot i for
// analyzed[i]. Results are shared by pointer between changes (the old
// version of a change is the new version of the one before), so the pass
// builds each distinct result's DAGs once and pairs and diffs every change
// from the shared sets. It walks the changes in index-ordered windows: each
// window builds the sets of the results it needs that the window before did
// not have, in parallel, then fans out its changes; sets older than the
// previous window are dropped. A build that panics leaves its set failed,
// and each change needing it falls back to live extraction under its own
// guard, so failures are recorded per change exactly as without sharing.
// Changes resolved through the artifact store instantiate from it.
func (d *DiffCode) extractClass(analyzed []*AnalyzedChange, class string) []extraction {
	// build is one new result of a window, with the guard task of its
	// build: the first change needing it, and which version.
	type build struct {
		res  *analysis.Result
		task string
	}
	pool := d.opts.pool()
	xs := make([]extraction, len(analyzed))
	var prev map[*analysis.Result]*dagSet
	for lo := 0; lo < len(analyzed); lo += extractWindow {
		win := analyzed[lo:min(lo+extractWindow, len(analyzed))]
		sets := make(map[*analysis.Result]*dagSet, len(win)+1)
		var fresh []build
		for _, a := range win {
			if a == nil || a.art != nil || !a.UsesClass(class) {
				continue
			}
			for v, res := range [2]*analysis.Result{a.Old, a.New} {
				if sets[res] != nil {
					continue
				}
				if s := prev[res]; s != nil {
					sets[res] = s
					continue
				}
				sets[res] = &dagSet{}
				fresh = append(fresh, build{res, extractTask(a, class) + [2]string{" [old]", " [new]"}[v]})
			}
		}
		pool.ForEach(context.Background(), len(fresh), func(i int) {
			f := fresh[i]
			s := sets[f.res]
			// A failed build is not recorded: the changes needing the set
			// fall back to live extraction, which records their failures.
			_ = resilience.Guard(f.task, func() error {
				s.gs = usage.BuildAll(f.res, class, d.opts.Depth)
				s.ok = true
				return nil
			})
		})
		if len(fresh) > 0 {
			d.opts.Metrics.Counter("extract.dag_builds").Add(int64(len(fresh)))
		}
		pool.ForEach(context.Background(), len(win), func(j int) {
			xs[lo+j] = d.extractShared(win[j], class, sets)
		})
		prev = sets
	}
	return xs
}

// extractShared extracts one change of a class pass from the pass's shared
// DAG sets, under the change's own guard.
func (d *DiffCode) extractShared(a *AnalyzedChange, class string, sets map[*analysis.Result]*dagSet) (x extraction) {
	if a == nil || !a.UsesClass(class) {
		return x
	}
	x.task = extractTask(a, class)
	x.err = resilience.Guard(x.task, func() error {
		if a.art == nil && sets[a.Old].ok && sets[a.New].ok {
			d.opts.Metrics.Counter("extract.runs").Inc()
			x.ucs = change.ExtractGraphs(sets[a.Old].gs, sets[a.New].gs, class, a.Meta)
		} else {
			x.ucs = d.ExtractClass(a, class)
		}
		return nil
	})
	return x
}

// extractTask renders the ledger/guard identity of one change's extraction.
func extractTask(a *AnalyzedChange, class string) string {
	return "extract " + class + " " + a.Meta.Project + "@" + a.Meta.Commit + ":" + a.Meta.File
}

// ClusterChanges builds the dendrogram over semantic usage changes
// (complete linkage, per the paper). The distance matrix and the per-merge
// scans run row-chunked on the pipeline's worker pool, and the distance
// kernels run through the memoized engine unless Options.DisableDistCache
// is set; the dendrogram is identical at any worker count and with the
// cache on or off. Under a traced ctx the whole agglomeration runs under a
// "cluster" child span carrying the input size (the distance-matrix
// fan-out below it is deliberately not per-task traced — an O(n²) stage
// would dominate the span tree without adding attribution).
func (d *DiffCode) ClusterChanges(ctx context.Context, changes []change.UsageChange) *cluster.Node {
	sp := d.opts.Metrics.StartSpan("cluster")
	_, csp := trace.Start(ctx, "cluster")
	csp.SetAttr("changes", fmt.Sprint(len(changes)))
	root := cluster.AgglomerateEngine(changes, cluster.Complete, d.opts.Metrics, d.opts.pool(), d.engine)
	csp.End()
	sp.End()
	return root
}

// ---------------------------------------------------------------------------
// CryptoChecker
// ---------------------------------------------------------------------------

// CryptoChecker checks programs against a rule set (§6.4).
type CryptoChecker struct {
	Rules []*rules.Rule
	opts  Options
	// optFP/rulesFP fingerprint the checker's options and rule set once;
	// together they prefix every check-outcome artifact key.
	optFP   string
	rulesFP string
}

// NewChecker returns a checker over the given rules (default: all 13).
func NewChecker(ruleSet []*rules.Rule, opts Options) *CryptoChecker {
	if len(ruleSet) == 0 {
		ruleSet = rules.All()
	}
	opts = opts.withDefaults()
	return &CryptoChecker{
		Rules:   ruleSet,
		opts:    opts,
		optFP:   optFingerprint(opts),
		rulesFP: rulesFingerprint(ruleSet),
	}
}

// CheckOutcome is the result of one request-scoped check.
type CheckOutcome struct {
	Violations []rules.Violation
	// Traces holds the witness traces when the request asked for them; the
	// violations are then in report order (file, line, rule ID). Nil when
	// witnesses were not requested.
	Traces []witness.Trace
	Result *analysis.Result
}

// CheckRequest is the checker's one entry point, behind the analysis
// server's /v1/check, diffcode's -why and the facade: one guarded,
// budgeted, cancelable check of a source bundle, analyzed as one program.
// The per-file parse and the per-rule evaluation fan out on the checker's
// worker pool; violations come back in the stable rule-set order at any
// worker count or, with why, sorted by source location (file, line, rule
// ID) with their witness traces. The whole parse+analyze+check runs under
// resilience.Guard, so a panic on a pathological snippet comes back as a
// categorizable error instead of killing the serving process, and the
// per-request budget is tightened by ctx's deadline and trips early if ctx
// is canceled (a disconnected client stops paying for analysis nobody will
// read).
func (c *CryptoChecker) CheckRequest(ctx context.Context, sources map[string]string, rctx rules.Context, why bool) (*CheckOutcome, error) {
	out, err := c.checkOutcome(ctx, sources, rctx, why)
	if err != nil {
		return nil, err
	}
	// Per-request accounting fires once for every request served — the live
	// leader, its single-flight waiters, and warm artifact hits alike.
	reg := c.opts.Metrics
	reg.Counter("checker.programs").Inc()
	reg.Counter("checker.rules_evaluated").Add(int64(len(c.Rules)))
	reg.Counter("checker.violations").Add(int64(len(out.Violations)))
	if why {
		witness.Observe(reg, out.Traces)
	}
	return out, nil
}

// checkLive runs one guarded, budgeted, cancelable check — the storeless
// CheckRequest body, also run (under single-flight) on an artifact miss.
// Per-request counters and witness observation live in CheckRequest.
func (c *CryptoChecker) checkLive(ctx context.Context, sources map[string]string, rctx rules.Context, why bool) (*CheckOutcome, error) {
	reg := c.opts.Metrics
	pool := c.opts.pool()
	out := &CheckOutcome{}
	sp := reg.StartSpan("check")
	cctx, csp := trace.Start(ctx, "check")
	err := resilience.Guard("check", func() error {
		aopts := c.opts.Analysis
		aopts.Budget = resilience.NewBudgetContext(ctx, c.opts.BudgetSteps, c.opts.BudgetWall)
		aopts.Provenance = why
		res, err := analysis.AnalyzeBudgetedCtx(cctx, analysis.ParseProgramStoreCtx(cctx, sources, reg, pool, c.opts.Artifacts), aopts)
		if err != nil {
			return err
		}
		out.Result = res
		out.Violations = rules.CheckPoolCtx(cctx, res, rctx, c.Rules, pool)
		if why {
			out.Violations = report.SortViolations(out.Violations, res)
			_, wsp := trace.Start(cctx, "witness")
			out.Traces = witness.Collect(out.Violations, res, rctx)
			wsp.SetAttr("traces", fmt.Sprint(len(out.Traces)))
			wsp.End()
		}
		return nil
	})
	if err != nil {
		csp.Annotate(string(resilience.Categorize(err)))
	}
	csp.End()
	sp.End()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ContextOf converts corpus project metadata into a rule context.
func ContextOf(p *corpus.Project) rules.Context {
	return rules.Context{
		Android:       p.Info.Android,
		MinSDKVersion: p.Info.MinSDKVersion,
		HasLPRNG:      p.Info.HasLPRNG,
	}
}
