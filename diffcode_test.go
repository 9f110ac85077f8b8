package diffcode

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestPublicAPIPaperExample drives the whole public surface on the paper's
// Figure 2 running example.
func TestPublicAPIPaperExample(t *testing.T) {
	changes := DiffSources(benchOld, benchNew, Cipher, Options{})
	if len(changes) != 1 {
		t.Fatalf("changes = %d", len(changes))
	}
	kept, stats := Filter(changes)
	if len(kept) != 1 || stats.AfterDup != 1 {
		t.Fatalf("filtering lost the fix: %+v", stats)
	}
	c := kept[0]
	if c.Class != Cipher {
		t.Errorf("class = %s", c.Class)
	}
	var rendered []string
	for _, p := range c.Removed {
		rendered = append(rendered, "-"+p.String())
	}
	for _, p := range c.Added {
		rendered = append(rendered, "+"+p.String())
	}
	joined := strings.Join(rendered, "\n")
	if !strings.Contains(joined, `-Cipher → getInstance → arg1:"AES"`) {
		t.Errorf("missing removed feature:\n%s", joined)
	}
	if !strings.Contains(joined, "IvParameterSpec") {
		t.Errorf("missing IV feature:\n%s", joined)
	}

	// The suggested rule flags old code and accepts new code.
	rule := SuggestRule(c)
	oldRes := mustUsages(t, benchOld, Options{})
	newRes := mustUsages(t, benchNew, Options{})
	if ok, _ := rule.Matches(oldRes, RuleContext{}); !ok {
		t.Error("suggested rule misses the vulnerable version")
	}
	if ok, _ := rule.Matches(newRes, RuleContext{}); ok {
		t.Error("suggested rule flags the fixed version")
	}
}

// TestAnalyzeUsagesHonoursOptions: the facade hands its options to the
// analyzer, so a registry in Options.Metrics sees the run.
func TestAnalyzeUsagesHonoursOptions(t *testing.T) {
	reg := obs.NewRegistry()
	mustUsages(t, benchOld, Options{Metrics: reg})
	if n := reg.Counter("analysis.runs").Value(); n != 1 {
		t.Errorf("analysis.runs = %d, want 1", n)
	}
}

func TestPublicChecker(t *testing.T) {
	vulnerable := `
class V {
    void go(Key k) throws Exception {
        Cipher c = Cipher.getInstance("AES");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`
	vs := mustCheck(t, vulnerable, RuleContext{}, Options{})
	ids := map[string]bool{}
	for _, v := range vs {
		ids[v.Rule.ID] = true
	}
	if !ids["R7"] {
		t.Errorf("R7 (ECB) not reported: %v", ids)
	}
	if !ids["R5"] {
		t.Errorf("R5 (provider) not reported: %v", ids)
	}
}

func TestPublicRuleRegistry(t *testing.T) {
	if len(Rules()) != 13 {
		t.Errorf("Rules() = %d", len(Rules()))
	}
	if len(CryptoLintRules()) != 5 {
		t.Errorf("CryptoLintRules() = %d", len(CryptoLintRules()))
	}
	if RuleByID("R7") == nil || RuleByID("CL1") == nil {
		t.Error("RuleByID lookup failed")
	}
	if got := TargetClasses(); len(got) != 6 || got[0] != Cipher {
		t.Errorf("TargetClasses = %v", got)
	}
}

func TestPublicCorpusAndMining(t *testing.T) {
	c := GenerateCorpus(CorpusConfig{Seed: 2, Scale: 0.05, Projects: 10, ExtraProjects: 2})
	if len(c.Projects) != 12 {
		t.Fatalf("projects = %d", len(c.Projects))
	}
	ccs := MineCorpus(c, 0)
	if len(ccs) == 0 {
		t.Fatal("no code changes mined")
	}
	// Unified diff of a change renders the -/+ patch.
	patch := UnifiedDiff(ccs[0].Old, ccs[0].New, 1)
	if !strings.Contains(patch, "- ") && !strings.Contains(patch, "+ ") {
		t.Errorf("diff has no changes:\n%s", patch)
	}
}

func TestPublicClusterRendering(t *testing.T) {
	a := DiffSources(benchOld, benchNew, Cipher, Options{})
	b := DiffSources(
		strings.ReplaceAll(benchOld, `"AES"`, `"DES"`),
		strings.ReplaceAll(benchNew, "AES/CBC/PKCS5Padding", "AES/GCM/NoPadding"),
		Cipher, Options{})
	all := append(a, b...)
	kept, _ := Filter(all)
	if len(kept) < 2 {
		t.Fatalf("kept = %d", len(kept))
	}
	root := Cluster(kept)
	out := RenderDendrogram(root, func(i int) string { return kept[i].Key() })
	if !strings.Contains(out, "h=") {
		t.Errorf("dendrogram:\n%s", out)
	}
}

func TestDefaultCorpusConfig(t *testing.T) {
	cfg := DefaultCorpusConfig()
	if cfg.Projects != 461 || cfg.ExtraProjects != 58 || cfg.Scale != 1.0 {
		t.Errorf("default config = %+v", cfg)
	}
}

// TestFacadeAnalysisIsGuarded: a panic inside the analysis behind
// AnalyzeUsages, BuildDAGs and CheckSource is returned as an error rather
// than crashing the caller.
func TestFacadeAnalysisIsGuarded(t *testing.T) {
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if task == "analyze source" || task == "check" {
			panic("facade chaos")
		}
		return nil
	})
	if res, err := AnalyzeUsages(benchOld, Options{}); res != nil || resilience.Categorize(err) != resilience.CatPanic {
		t.Errorf("AnalyzeUsages = %v, %v; want a panic error", res, err)
	}
	if gs, err := BuildDAGs(benchOld, Cipher, Options{}); gs != nil || resilience.Categorize(err) != resilience.CatPanic {
		t.Errorf("BuildDAGs = %v, %v; want a panic error", gs, err)
	}
	if vs, err := CheckSource(benchOld, RuleContext{}, Options{}); vs != nil || resilience.Categorize(err) != resilience.CatPanic {
		t.Errorf("CheckSource = %v, %v; want a panic error", vs, err)
	}
}

// mustDAGs is BuildDAGs for tests and benchmarks: an analysis
// error fails b.
func mustDAGs(b testing.TB, src, class string, opts Options) []*Graph {
	b.Helper()
	gs, err := BuildDAGs(src, class, opts)
	if err != nil {
		b.Fatal(err)
	}
	return gs
}

// mustUsages is AnalyzeUsages for tests and benchmarks: an analysis
// error fails b.
func mustUsages(b testing.TB, src string, opts Options) *analysis.Result {
	b.Helper()
	res, err := AnalyzeUsages(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// mustCheck is CheckSource for tests and benchmarks: a check error
// fails b.
func mustCheck(b testing.TB, src string, rctx RuleContext, opts Options) []Violation {
	b.Helper()
	vs, err := CheckSource(src, rctx, opts)
	if err != nil {
		b.Fatal(err)
	}
	return vs
}
