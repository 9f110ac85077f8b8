// Package corpus generates the synthetic Java project corpus that stands in
// for the paper's mined GitHub dataset (461 training projects + 58 held-out
// projects, 11.5k code changes). Every commit is a real pair of Java source
// versions: refactorings are genuine semantics-preserving rewrites, security
// fixes genuinely change how the crypto API is configured, and duplicate
// fixes recur across projects — so the downstream pipeline (parse → analyze
// → abstract → diff → filter → cluster) does the same work it would do on
// mined code. Commit-kind frequencies and initial-configuration
// probabilities are calibrated to the marginals of the paper's Figures 6, 7
// and 10 (see DESIGN.md §3 for the substitution argument).
package corpus

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/parallel"
)

// Config controls corpus generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Scale multiplies the per-file commit volume; 1.0 approximates the
	// paper's data-set size (tens of thousands of usage changes).
	Scale float64
	// Projects is the number of training projects (paper: 461).
	Projects int
	// ExtraProjects are held-out projects added for the checker evaluation
	// (paper: 58, for 519 total).
	ExtraProjects int
	// ForkFraction is the share of training projects that additionally
	// appear as forks (same history prefix under a new name, possibly with
	// a few extra commits). The paper's selection step de-duplicates such
	// forks (§6.1); mining.Collect does the same. Default 0.04.
	ForkFraction float64
}

// Default returns the paper-scale configuration.
func Default() Config {
	return Config{Seed: 1, Scale: 1.0, Projects: 461, ExtraProjects: 58}
}

// WithScale returns a copy with the given scale (and proportionally fewer
// projects below scale 0.25 so small corpora stay diverse but quick).
func (c Config) WithScale(s float64) Config {
	c.Scale = s
	return c
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Projects <= 0 {
		c.Projects = 461
	}
	if c.ExtraProjects < 0 {
		c.ExtraProjects = 0
	}
	if c.ForkFraction < 0 {
		c.ForkFraction = 0
	}
	if c.ForkFraction == 0 {
		c.ForkFraction = 0.04
	}
	return c
}

// ProjectInfo carries project-level facts consumed by context-sensitive
// rules (R6).
type ProjectInfo struct {
	Android       bool
	MinSDKVersion int
	HasLPRNG      bool
}

// Commit is one code change: the old and new version of one file.
type Commit struct {
	ID      string
	Message string
	File    string
	Old     string
	New     string
	// Kind records the generator's intent (useful for evaluating filter
	// precision; the pipeline itself never reads it).
	Kind CommitKind
}

// Project is a repository with a commit history and a final snapshot.
type Project struct {
	Name     string
	Info     ProjectInfo
	Files    map[string]string // final snapshot: path → content
	Commits  []Commit
	Training bool   // part of the training set (mined for changes)
	ForkOf   string // original project name when this is a fork, "" otherwise
}

// Corpus is the full generated data set.
type Corpus struct {
	Projects []*Project
}

// TrainingProjects returns the projects whose histories are mined.
func (c *Corpus) TrainingProjects() []*Project {
	var out []*Project
	for _, p := range c.Projects {
		if p.Training {
			out = append(out, p)
		}
	}
	return out
}

// CommitCount sums commits across training projects.
func (c *Corpus) CommitCount() int {
	n := 0
	for _, p := range c.TrainingProjects() {
		n += len(p.Commits)
	}
	return n
}

// CommitKind labels the generator's intent for a commit.
type CommitKind int

// Commit kinds.
const (
	KindRefactor  CommitKind = iota // rename identifiers, reorder members
	KindUnrelated                   // touch decoy code only
	KindAdd                         // introduce a new API usage
	KindRemove                      // delete an existing API usage
	KindFix                         // security fix (spec transition)
	KindBug                         // reverse of a fix
)

// String names the kind.
func (k CommitKind) String() string {
	switch k {
	case KindRefactor:
		return "refactor"
	case KindUnrelated:
		return "unrelated"
	case KindAdd:
		return "add"
	case KindRemove:
		return "remove"
	case KindFix:
		return "fix"
	case KindBug:
		return "bug"
	}
	return "?"
}

// Generate builds the corpus for the given configuration. Every project
// seed is drawn serially from the master stream; the projects then build
// on a worker pool (generateProject is a pure function of its seed) and
// land at their index, so the corpus is identical at any GOMAXPROCS.
func Generate(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	master := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.Projects + cfg.ExtraProjects
	seeds := make([]int64, total)
	for i := range seeds {
		seeds[i] = master.Int63()
	}
	corpus := &Corpus{Projects: parallel.Map(parallel.New(0, nil), context.Background(), total, func(i int) *Project {
		return generateProject(i, seeds[i], cfg, i < cfg.Projects)
	})}
	// Forks: a slice of training projects reappears under new names with
	// the same commit-history prefix (GitHub reality the paper's selection
	// step has to undo).
	forkRng := rand.New(rand.NewSource(master.Int63()))
	var forks []*Project
	for _, p := range corpus.TrainingProjects() {
		if len(p.Commits) < 2 || forkRng.Float64() >= cfg.ForkFraction {
			continue
		}
		forks = append(forks, forkProject(forkRng, p, len(corpus.Projects)+len(forks)))
	}
	corpus.Projects = append(corpus.Projects, forks...)
	return corpus
}

// forkProject clones a project under a new name, keeping a prefix of its
// commit history (as a Git fork would).
func forkProject(rng *rand.Rand, orig *Project, idx int) *Project {
	keep := 1 + rng.Intn(len(orig.Commits))
	fork := &Project{
		Name:     fmt.Sprintf("%s-fork-%03d", orig.Name, idx),
		Info:     orig.Info,
		Files:    map[string]string{},
		Training: orig.Training,
		ForkOf:   orig.Name,
	}
	for _, cm := range orig.Commits[:keep] {
		cm.ID = fmt.Sprintf("%s-%04d", fork.Name, len(fork.Commits)+1)
		fork.Commits = append(fork.Commits, cm)
	}
	// Snapshot: original files, with forked files rewound to the kept tip.
	for path, content := range orig.Files {
		fork.Files[path] = content
	}
	for _, cm := range fork.Commits {
		fork.Files[cm.File] = cm.New
	}
	return fork
}

// generateProject builds one project: its files (with initial specs), the
// per-file commit histories, and the final snapshot.
func generateProject(idx int, seed int64, cfg Config, training bool) *Project {
	rng := rand.New(rand.NewSource(seed))
	p := &Project{
		Name:     projectName(rng, idx),
		Files:    map[string]string{},
		Training: training,
	}
	// ~11.4% of projects are Android apps (Figure 10, R6 applicability).
	if rng.Float64() < 0.114 {
		p.Info.Android = true
		p.Info.MinSDKVersion = []int{15, 16, 16, 17, 18, 19, 21, 22, 23, 19}[rng.Intn(10)]
		p.Info.HasLPRNG = rng.Float64() < 0.08
	}

	for _, arch := range projectArchetypes(rng, p.Info.Android) {
		spec := newFileSpec(rng, arch)
		path := spec.Path()
		if _, dup := p.Files[path]; dup {
			continue
		}
		final := generateHistory(rng, p, spec, cfg, training)
		p.Files[path] = final
	}
	if p.Info.Android {
		p.Files["AndroidManifest.xml"] = renderManifest(p.Info.MinSDKVersion)
		if p.Info.HasLPRNG {
			p.Files["src/security/PRNGFixes.java"] = prngFixesStub
		}
	}
	return p
}

// renderManifest emits the AndroidManifest.xml matching the project info,
// so context detection from files agrees with the generator's metadata.
func renderManifest(minSDK int) string {
	return fmt.Sprintf(`<?xml version="1.0" encoding="utf-8"?>
<manifest xmlns:android="http://schemas.android.com/apk/res/android"
    package="com.generated.app">
    <uses-sdk android:minSdkVersion="%d" android:targetSdkVersion="23" />
    <application android:label="Generated" />
</manifest>
`, minSDK)
}

// prngFixesStub is a minimal stand-in for the advisory's PRNGFixes class.
const prngFixesStub = `package security;

public final class PRNGFixes {
    private PRNGFixes() {}

    public static void apply() {
        applyOpenSSLFix();
        installLinuxPRNGSecureRandom();
    }

    private static void applyOpenSSLFix() {
    }

    private static void installLinuxPRNGSecureRandom() {
    }
}
`

// projectArchetypes draws which file archetypes a project contains. The
// inclusion probabilities are calibrated to the per-class applicability
// rates of Figure 10 (e.g. 58.8% of projects use SecureRandom, 40.7% use
// Cipher, 12.3% use PBEKeySpec).
func projectArchetypes(rng *rand.Rand, android bool) []Archetype {
	var out []Archetype
	if rng.Float64() < 0.31 {
		out = append(out, ArchEnc)
	}
	if rng.Float64() < 0.41 {
		out = append(out, ArchDigest)
	}
	if rng.Float64() < 0.26 || android {
		// Android apps in the mined data set invariably touch SecureRandom
		// (token generation); this keeps R6's applicability at the android
		// project fraction, as in Figure 10.
		out = append(out, ArchToken)
	}
	if rng.Float64() < 0.123 {
		out = append(out, ArchPBE)
	}
	if rng.Float64() < 0.14 {
		out = append(out, ArchKey)
	}
	if rng.Float64() < 0.09 {
		out = append(out, ArchMixed)
	}
	if len(out) == 0 {
		// Every selected project uses the crypto API somewhere.
		all := []Archetype{ArchEnc, ArchDigest, ArchToken, ArchKey}
		out = append(out, all[rng.Intn(len(all))])
	}
	return out
}

// commitsPerFile is the expected history length of a file at scale 1.0,
// chosen so that per-class usage-change volumes land near Figure 6.
var commitsPerFile = map[Archetype]float64{
	ArchEnc:    22,
	ArchDigest: 12,
	ArchToken:  24,
	ArchPBE:    14,
	ArchKey:    14,
	ArchMixed:  18,
}

// kind mix per commit: the overwhelming majority of commits touching a
// crypto-using file do not change how the API is used (Figure 6: fsame
// removes >96% of usage changes).
func drawKind(rng *rand.Rand) CommitKind {
	r := rng.Float64()
	switch {
	case r < 0.545:
		return KindRefactor
	case r < 0.938:
		return KindUnrelated
	case r < 0.966:
		return KindAdd
	case r < 0.979:
		return KindRemove
	case r < 0.998:
		return KindFix
	default:
		return KindBug
	}
}

// generateHistory evolves one file through its commit sequence, appending
// the commits to the project, and returns the file's final content.
func generateHistory(rng *rand.Rand, p *Project, spec *FileSpec, cfg Config, training bool) string {
	cur := spec.Render()
	if !training {
		// Held-out projects contribute only their snapshot.
		return cur
	}
	n := int(commitsPerFile[spec.Arch]*cfg.Scale + 0.5)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		kind := drawKind(rng)
		msg, effective := spec.apply(rng, kind)
		kind = effective
		next := spec.Render()
		if next == cur {
			// A degenerate no-text-change commit cannot exist in a VCS;
			// force a decoy touch.
			spec.DecoySeed++
			msg = "Tweak internal constants"
			kind = KindUnrelated
			next = spec.Render()
		}
		p.Commits = append(p.Commits, Commit{
			ID:      fmt.Sprintf("%s-%04d", p.Name, len(p.Commits)+1),
			Message: msg,
			File:    spec.Path(),
			Old:     cur,
			New:     next,
			Kind:    kind,
		})
		cur = next
	}
	return cur
}
