package corpus

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/javaparser"
)

func smallConfig() Config {
	return Config{Seed: 7, Scale: 0.05, Projects: 40, ExtraProjects: 5}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if len(a.Projects) != len(b.Projects) {
		t.Fatalf("project counts differ: %d vs %d", len(a.Projects), len(b.Projects))
	}
	for i := range a.Projects {
		pa, pb := a.Projects[i], b.Projects[i]
		if pa.Name != pb.Name || len(pa.Commits) != len(pb.Commits) {
			t.Fatalf("project %d differs: %s/%d vs %s/%d",
				i, pa.Name, len(pa.Commits), pb.Name, len(pb.Commits))
		}
		for j := range pa.Commits {
			if pa.Commits[j].Old != pb.Commits[j].Old || pa.Commits[j].New != pb.Commits[j].New {
				t.Fatalf("commit %s not deterministic", pa.Commits[j].ID)
			}
		}
	}
}

// TestDeterminismCorpusGenerate: projects build on a worker pool sized by
// GOMAXPROCS, and the corpus is identical to the serial one-worker build
// at any GOMAXPROCS (CI also runs it at -cpu=1,4).
func TestDeterminismCorpusGenerate(t *testing.T) {
	cfg := smallConfig()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := Generate(cfg)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := Generate(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: corpus differs from the serial build", procs)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 8
	a := Generate(smallConfig())
	b := Generate(cfg2)
	same := 0
	for i := range a.Projects {
		if i < len(b.Projects) && a.Projects[i].Name == b.Projects[i].Name {
			same++
		}
	}
	if same == len(a.Projects) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestAllVersionsParse(t *testing.T) {
	c := Generate(smallConfig())
	checked := 0
	for _, p := range c.Projects {
		for f, src := range p.Files {
			if !strings.HasSuffix(f, ".java") {
				continue
			}
			if errs := javaparser.Parse(src).Errors; len(errs) > 0 {
				t.Fatalf("%s %s: parse errors %v\n%s", p.Name, f, errs, src)
			}
			checked++
		}
		for _, cm := range p.Commits {
			for _, src := range []string{cm.Old, cm.New} {
				if errs := javaparser.Parse(src).Errors; len(errs) > 0 {
					t.Fatalf("%s: parse errors %v\n%s", cm.ID, errs, src)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no files generated")
	}
}

func TestCommitsNeverDegenerate(t *testing.T) {
	c := Generate(smallConfig())
	for _, p := range c.TrainingProjects() {
		for _, cm := range p.Commits {
			if cm.Old == cm.New {
				t.Errorf("%s: old == new (degenerate commit, kind=%s)", cm.ID, cm.Kind)
			}
		}
	}
}

func TestHistoryIsContiguous(t *testing.T) {
	c := Generate(smallConfig())
	for _, p := range c.TrainingProjects() {
		last := map[string]string{}
		for _, cm := range p.Commits {
			if prev, ok := last[cm.File]; ok && prev != cm.Old {
				t.Fatalf("%s: commit chain broken for %s", cm.ID, cm.File)
			}
			last[cm.File] = cm.New
		}
		// Final snapshot matches the last commit of each file.
		for f, snapshot := range p.Files {
			if fin, ok := last[f]; ok && fin != snapshot {
				t.Errorf("%s: snapshot of %s diverges from history tail", p.Name, f)
			}
		}
	}
}

func TestCommitKindMix(t *testing.T) {
	cfg := Config{Seed: 3, Scale: 0.4, Projects: 120, ExtraProjects: 0}
	c := Generate(cfg)
	counts := map[CommitKind]int{}
	total := 0
	for _, p := range c.TrainingProjects() {
		for _, cm := range p.Commits {
			counts[cm.Kind]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no commits")
	}
	frac := func(k CommitKind) float64 { return float64(counts[k]) / float64(total) }
	// The corpus must be dominated by non-semantic changes (paper: >96%
	// filtered by fsame) with a thin band of semantic ones.
	if f := frac(KindRefactor) + frac(KindUnrelated); f < 0.93 {
		t.Errorf("non-semantic commit fraction = %.3f, want >= 0.93", f)
	}
	if counts[KindFix] == 0 {
		t.Error("no security-fix commits generated")
	}
	if counts[KindBug] >= counts[KindFix] {
		t.Errorf("bugs (%d) should be rarer than fixes (%d)",
			counts[KindBug], counts[KindFix])
	}
	if counts[KindAdd] == 0 || counts[KindRemove] == 0 {
		t.Error("missing add/remove commits")
	}
}

func TestProjectInfoDistribution(t *testing.T) {
	c := Generate(Config{Seed: 5, Scale: 0.02, Projects: 500, ExtraProjects: 0})
	android := 0
	for _, p := range c.Projects {
		if p.Info.Android {
			android++
			if p.Info.MinSDKVersion == 0 {
				t.Error("android project without minSdkVersion")
			}
		}
	}
	f := float64(android) / float64(len(c.Projects))
	if f < 0.06 || f > 0.18 {
		t.Errorf("android fraction = %.3f, want ≈ 0.114", f)
	}
}

func TestRefactorPreservesCryptoLines(t *testing.T) {
	// A refactor commit must keep every crypto-relevant literal intact
	// (transformations, algorithms, providers) while renaming identifiers.
	c := Generate(smallConfig())
	cryptoLiterals := []string{"getInstance", "Cipher", "SecureRandom"}
	inspected := 0
	for _, p := range c.TrainingProjects() {
		for _, cm := range p.Commits {
			if cm.Kind != KindRefactor {
				continue
			}
			inspected++
			for _, lit := range cryptoLiterals {
				if strings.Contains(cm.Old, lit) != strings.Contains(cm.New, lit) {
					t.Errorf("%s: refactor changed crypto surface (%s)", cm.ID, lit)
				}
			}
		}
	}
	if inspected == 0 {
		t.Error("no refactor commits to inspect")
	}
}

func TestFixCommitsChangeSemantics(t *testing.T) {
	c := Generate(Config{Seed: 11, Scale: 0.6, Projects: 80, ExtraProjects: 0})
	fixes := 0
	for _, p := range c.TrainingProjects() {
		for _, cm := range p.Commits {
			if cm.Kind == KindFix {
				fixes++
			}
		}
	}
	if fixes < 3 {
		t.Fatalf("only %d fix commits; generator mix too thin for the test", fixes)
	}
}

func TestSpecPathStable(t *testing.T) {
	cfg := smallConfig()
	c := Generate(cfg)
	for _, p := range c.TrainingProjects() {
		perFile := map[string]bool{}
		for _, cm := range p.Commits {
			perFile[cm.File] = true
		}
		for f := range perFile {
			if !strings.HasSuffix(f, ".java") || !strings.HasPrefix(f, "src/") {
				t.Errorf("unexpected path %q", f)
			}
		}
	}
}

func TestWeakDigest(t *testing.T) {
	for _, alg := range []string{"MD5", "SHA-1", "SHA1", "md5"} {
		if !WeakDigest(alg) {
			t.Errorf("WeakDigest(%q) = false", alg)
		}
	}
	for _, alg := range []string{"SHA-256", "SHA-512", ""} {
		if WeakDigest(alg) {
			t.Errorf("WeakDigest(%q) = true", alg)
		}
	}
}

func TestAndroidProjectsCarryManifest(t *testing.T) {
	c := Generate(Config{Seed: 5, Scale: 0.02, Projects: 300, ExtraProjects: 0})
	android := 0
	for _, p := range c.Projects {
		if !p.Info.Android {
			if _, has := p.Files["AndroidManifest.xml"]; has {
				t.Errorf("%s: non-android project has a manifest", p.Name)
			}
			continue
		}
		android++
		m, has := p.Files["AndroidManifest.xml"]
		if !has {
			t.Fatalf("%s: android project missing manifest", p.Name)
		}
		if !strings.Contains(m, fmt.Sprintf("minSdkVersion=\"%d\"", p.Info.MinSDKVersion)) {
			t.Errorf("%s: manifest does not carry minSdk %d:\n%s",
				p.Name, p.Info.MinSDKVersion, m)
		}
		_, hasFix := p.Files["src/security/PRNGFixes.java"]
		if hasFix != p.Info.HasLPRNG {
			t.Errorf("%s: PRNGFixes presence (%t) != Info.HasLPRNG (%t)",
				p.Name, hasFix, p.Info.HasLPRNG)
		}
	}
	if android == 0 {
		t.Fatal("no android projects generated")
	}
}
