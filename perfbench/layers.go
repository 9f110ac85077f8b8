package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/javatok"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rulelint"
	"repro/internal/rules"
	"repro/internal/usage"
	"repro/internal/witness"
)

// Span names of the layer sweeps. A sweep calls one layer's public
// function per input, serially, so a span's duration is that layer's busy
// time for the input and the allocation delta around it is the layer's.
const (
	spanTok     = "javatok"
	spanParse   = "javaparser"
	spanAnalyze = "analysis"
	spanUsage   = "usage"
	spanExtract = "change.extract"
	spanFilter  = "change.filter"
	spanCluster = "cluster"
	spanRules   = "rules"
	spanWitness = "witness"
)

// rulePackPaths are the packs diffcoded serves in serve-check; every
// workload's golden sweep uses the same merged rule set.
var rulePackPaths = []string{"rulepacks/tls-keystore.rules", "rulepacks/keygen-prng.rules"}

// meter times layer calls into a tracer and keeps the counts and
// allocation deltas the per-layer metrics are made of.
type meter struct {
	t           *tracer
	count       map[string]float64
	alloc       map[string]uint64
	allocSample []metrics.Sample
}

func newMeter(t *tracer) *meter {
	return &meter{
		t:           t,
		count:       map[string]float64{},
		alloc:       map[string]uint64{},
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (m *meter) allocBytes() uint64 {
	metrics.Read(m.allocSample)
	return m.allocSample[0].Value.Uint64()
}

// call runs f as one span of layer and charges its allocations to it.
func (m *meter) call(layer string, f func()) {
	a0 := m.allocBytes()
	id := m.t.begin(layer)
	f()
	m.t.end(id)
	m.alloc[layer] += m.allocBytes() - a0
}

func (m *meter) tokenize(src string) {
	var toks []javatok.Token
	m.call(spanTok, func() { toks = javatok.Tokenize(src) })
	m.count["javatok.tokens"] += float64(len(toks))
	m.count["javatok.bytes"] += float64(len(src))
}

// program tokenizes, parses and analyzes one source bundle.
func (m *meter) program(sources map[string]string, aopts analysis.Options) *analysis.Result {
	names := make([]string, 0, len(sources))
	for n := range sources {
		if strings.HasSuffix(n, ".java") || !strings.Contains(n, ".") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		m.tokenize(sources[n])
	}
	var prog *analysis.Program
	m.call(spanParse, func() { prog = analysis.ParseProgram(sources) })
	m.count["javaparser.files"] += float64(len(prog.Files))
	var res *analysis.Result
	m.call(spanAnalyze, func() { res = analysis.Analyze(prog, aopts) })
	m.count["analysis.runs"]++
	return res
}

// check evaluates a rule set, and with why the witness traces as well.
func (m *meter) check(res *analysis.Result, ctx rules.Context, ruleSet []*rules.Rule, why bool) []rules.Violation {
	var vs []rules.Violation
	m.call(spanRules, func() { vs = rules.Check(res, ctx, ruleSet) })
	m.count["rules.evaluations"] += float64(len(ruleSet))
	if why {
		var traces []witness.Trace
		m.call(spanWitness, func() { traces = witness.Collect(report.SortViolations(vs, res), res, ctx) })
		m.count["witness.traces"] += float64(len(traces))
	}
	return vs
}

// changeSweep runs the mining pipeline's layers over code changes the way
// the pipeline does: analyze both versions, classify them against the
// CryptoLint rules (Figure 7), build the usage DAGs and extract the usage
// changes of every target class either version uses, then filter each
// class and cluster its survivors.
func (m *meter) changeSweep(ccs []mining.CodeChange, aopts analysis.Options, depth int, reg *obs.Registry) {
	byClass := map[string][]change.UsageChange{}
	lint := rules.CryptoLint()
	for _, cc := range ccs {
		oldRes := m.program(map[string]string{"Main.java": cc.Old}, aopts)
		newRes := m.program(map[string]string{"Main.java": cc.New}, aopts)
		m.call(spanRules, func() {
			for _, r := range lint {
				rules.Classify(r, oldRes, newRes, rules.Context{})
			}
		})
		m.count["rules.evaluations"] += float64(2 * len(lint))
		for _, class := range cryptoapi.TargetClasses {
			if !mining.UsesClass(cc.Old, class) && !mining.UsesClass(cc.New, class) {
				continue
			}
			m.call(spanUsage, func() {
				n := len(usage.BuildAll(oldRes, class, depth)) + len(usage.BuildAll(newRes, class, depth))
				m.count["usage.graphs"] += float64(n)
			})
			m.call(spanExtract, func() {
				byClass[class] = append(byClass[class], change.Extract(oldRes, newRes, class, depth, cc.Meta)...)
			})
		}
	}
	eng := distcache.New(reg)
	for _, class := range cryptoapi.TargetClasses {
		all := byClass[class]
		var kept []change.UsageChange
		m.call(spanFilter, func() { kept, _ = change.Filter(all) })
		m.count["change.usage_changes"] += float64(len(all))
		m.count["change.survivors"] += float64(len(kept))
		if len(kept) < 2 {
			continue
		}
		m.call(spanCluster, func() { cluster.AgglomerateEngine(kept, cluster.Complete, reg, nil, eng) })
		m.count["cluster.pairs"] += float64(len(kept) * (len(kept) - 1) / 2)
	}
}

// golden is one rule-pack golden: a file that must fire its pack rule, or
// (an _ok file) must fire no pack rule.
type golden struct {
	name, rule, src string
	positive        bool
}

var goldenName = regexp.MustCompile(`^(P[0-9]+)(_ok)?\.java$`)

// packRule matches the IDs the rule packs define.
var packRule = regexp.MustCompile(`^P[0-9]+$`)

func loadGoldens(root string) ([]golden, error) {
	dir := filepath.Join(root, "rulepacks", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []golden
	for _, ent := range entries {
		mm := goldenName.FindStringSubmatch(ent.Name())
		if mm == nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, golden{name: ent.Name(), rule: mm[1], src: string(b), positive: mm[2] == ""})
	}
	return out, nil
}

// goldenVerdict reports whether the rule IDs a golden fired are its known
// answer.
func goldenVerdict(g golden, fired []string) bool {
	for _, id := range fired {
		if g.positive && id == g.rule {
			return true
		}
		if !g.positive && packRule.MatchString(id) {
			return false
		}
	}
	return !g.positive
}

// activeRules is the merged rule set diffcoded serves: the built-ins plus
// both shipped packs.
func activeRules(root string) ([]*rules.Rule, error) {
	paths := make([]string, len(rulePackPaths))
	for i, p := range rulePackPaths {
		paths[i] = filepath.Join(root, p)
	}
	res, err := rulelint.Load(paths)
	if err != nil {
		return nil, err
	}
	return res.Active, nil
}

// goldenSweep checks the 24 pack goldens with witness traces and counts the
// confusion matrix of the pack rules over them.
func (m *meter) goldenSweep(root string, res *result) error {
	gs, err := loadGoldens(root)
	if err != nil {
		return err
	}
	ruleSet, err := activeRules(root)
	if err != nil {
		return err
	}
	aopts := analysis.Options{Provenance: true}
	res.attempted += len(gs)
	for _, g := range gs {
		r := m.program(map[string]string{g.name: g.src}, aopts)
		var fired []string
		for _, v := range m.check(r, rules.Context{}, ruleSet, true) {
			fired = append(fired, v.Rule.ID)
		}
		ok := goldenVerdict(g, fired)
		switch {
		case g.positive && ok:
			m.count["rules.tp"]++
		case g.positive:
			m.count["rules.fn"]++
		case ok:
			m.count["rules.tn"]++
		default:
			m.count["rules.fp"]++
		}
		if !ok {
			res.fail("golden %s fired %v", g.name, fired)
		}
	}
	return nil
}

// report turns the sweep's spans and counts into per-layer metrics. A
// parse span includes lexing, and an extraction rebuilds the usage DAGs, so
// javaparser and change.extract report their time without the javatok and
// usage sweeps of the same inputs.
func (m *meter) report(res *result) {
	tot := m.t.totalTimes()
	sec := func(name string) float64 { return tot[name].Seconds() }
	tok := sec(spanTok)
	res.set("javatok.busy_s", tok, 0)
	res.set("javatok.tokens", m.count["javatok.tokens"], 0)
	if tok > 0 {
		res.set("javatok.mb_per_s", m.count["javatok.bytes"]/(1<<20)/tok, 0)
	}
	res.set("javaparser.busy_s", sec(spanParse)-tok, 0)
	res.set("javaparser.files", m.count["javaparser.files"], 0)
	res.set("javaparser.alloc_mb", float64(m.alloc[spanParse])/(1<<20), 0)
	res.set("analysis.busy_s", sec(spanAnalyze), 0)
	res.set("analysis.runs", m.count["analysis.runs"], 0)
	res.set("analysis.alloc_mb", float64(m.alloc[spanAnalyze])/(1<<20), 0)
	res.set("usage.busy_s", sec(spanUsage), 0)
	res.set("usage.graphs", m.count["usage.graphs"], 0)
	res.set("change.extract_s", sec(spanExtract)-sec(spanUsage), 0)
	res.set("change.usage_changes", m.count["change.usage_changes"], 0)
	res.set("change.filter_s", sec(spanFilter), 0)
	if n := m.count["change.usage_changes"]; n > 0 {
		res.set("change.survivor_ratio", m.count["change.survivors"]/n, 0)
	}
	res.set("cluster.busy_s", sec(spanCluster), 0)
	res.set("cluster.pairs", m.count["cluster.pairs"], 0)
	res.set("rules.busy_s", sec(spanRules), 0)
	res.set("rules.evaluations", m.count["rules.evaluations"], 0)
	for _, k := range []string{"rules.tp", "rules.fp", "rules.tn", "rules.fn"} {
		res.set(k, m.count[k], 0)
	}
	res.set("witness.busy_s", sec(spanWitness), 0)
	res.set("witness.traces", m.count["witness.traces"], 0)
}

// distcacheHitRatio reads the distance cache's hit ratio from a registry
// snapshot's counters.
func distcacheHitRatio(c map[string]int64) float64 {
	hits := c["cache.label_dist.hits"] + c["cache.path_dist.hits"]
	all := hits + c["cache.label_dist.misses"] + c["cache.path_dist.misses"]
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// artifactMetrics reads the artifact store's counters.
func artifactMetrics(res *result, c map[string]int64) {
	if all := c["artifact.hits"] + c["artifact.misses"]; all > 0 {
		res.set("artifact.hit_ratio", float64(c["artifact.hits"])/float64(all), 0)
	}
	res.set("artifact.read_mb", float64(c["artifact.bytes_read"])/(1<<20), 0)
	res.set("artifact.written_mb", float64(c["artifact.bytes_written"])/(1<<20), 0)
	res.set("summary.hits", float64(c["summary.hits"]), 0)
	res.set("summary.misses", float64(c["summary.misses"]), 0)
	res.set("distcache.hit_ratio", distcacheHitRatio(c), 0)
}

// runtimeWatch measures this process's GC share, allocation and peak heap
// between start and stop.
type runtimeWatch struct {
	first []metrics.Sample
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
	mu    sync.Mutex
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeWatch() *runtimeWatch {
	runtime.GC()
	w := &runtimeWatch{first: readRuntime(), stopc: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			w.mu.Lock()
			if v := s[0].Value.Uint64(); v > w.peak {
				w.peak = v
			}
			w.mu.Unlock()
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watch and reports gc.cpu_share, heap.peak_mb and alloc_mb.
func (w *runtimeWatch) stop(res *result) {
	close(w.stopc)
	w.wg.Wait()
	// The CPU classes are brought up to date by a GC cycle.
	runtime.GC()
	last := readRuntime()
	f := func(i int) float64 { return last[i].Value.Float64() - w.first[i].Value.Float64() }
	alloc := last[0].Value.Uint64() - w.first[0].Value.Uint64()
	gc, user, scav := f(1), f(2), f(3)
	if used := gc + user + scav; used > 0 {
		res.set("gc.cpu_share", gc/used, 0)
	}
	res.set("alloc_mb", float64(alloc)/(1<<20), 0)
	res.set("heap.peak_mb", float64(w.peak)/(1<<20), 0)
}
