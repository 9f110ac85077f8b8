package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/mining"
	"repro/internal/obs"
)

// The held-back history of mine-rerun.
const (
	// heldShare of the training projects have their last commits held
	// back from the cold run that fills the store.
	heldShare = 0.10
	// heldCommits is how many of a chosen project's last commits are held
	// back.
	heldCommits = 5
	// mineCorpusSeed fixes the corpus; the workload seed picks which
	// projects' commits are held back.
	mineCorpusSeed = 1
)

// rerunInterval paces the timed reruns. Back to back, the store resets
// between them (thousands of file creates and deletes per run) drove the
// disk into throttling and every rerun slower than the last.
const rerunInterval = time.Second

// mineSize is corpusgen's default history (300 mined changes). Each run
// writes the corpus and the store to disk three times, and the disk
// throttles sustained writes: with larger histories every set-up ran slower
// than the one before it, by up to 7x over ten runs, and only an idle
// minute brought the speed back.
var mineSize = corpus.Config{Scale: 0.2, Projects: 50, ExtraProjects: 6}

// mineConfig is the mine-rerun corpus.
func (e *env) mineConfig() corpus.Config {
	cfg := e.mineSize
	cfg.Seed = mineCorpusSeed
	return cfg
}

// mineDirs are the corpus D, the artifact store C and the stash holding
// the held-back commits while the cold run fills C.
type mineDirs struct{ corpus, cache, stash string }

// newMineDirs names the directories of set-up i. Every set-up gets fresh
// ones, so no set-up deletes files before it is timed (see clearDir).
func newMineDirs(work string, i int) mineDirs {
	sub := filepath.Join(work, fmt.Sprintf("setup%d", i))
	return mineDirs{
		corpus: filepath.Join(sub, "corpus"),
		cache:  filepath.Join(sub, "cache"),
		stash:  filepath.Join(sub, "stash"),
	}
}

// heldBack picks the commit directories to hold back: the last heldCommits
// of a seeded heldShare of the training projects.
func heldBack(corpusDir string, seed int64) ([]string, error) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, ent := range entries { // ReadDir sorts by name
		info, err := os.ReadFile(filepath.Join(corpusDir, ent.Name(), "info.txt"))
		if err != nil {
			return nil, err
		}
		if !strings.Contains(string(info), "training=true") || rng.Float64() >= heldShare {
			continue
		}
		commits, err := os.ReadDir(filepath.Join(corpusDir, ent.Name(), "commits"))
		if err != nil {
			return nil, err
		}
		from := len(commits) - heldCommits
		if from < 1 {
			from = 1
		}
		for _, cm := range commits[from:] {
			out = append(out, filepath.Join(ent.Name(), "commits", cm.Name()))
		}
	}
	return out, nil
}

// moveAll renames each relative path from one tree to the other.
func moveAll(paths []string, from, to string) error {
	for _, p := range paths {
		dst := filepath.Join(to, p)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.Rename(filepath.Join(from, p), dst); err != nil {
			return err
		}
	}
	return nil
}

// mineSetup saves the corpus, holds back commits, runs the cold diffcode
// that fills the store, and restores the full history. It returns the
// held-back commit paths and the time of the save plus the cold run.
func (e *env) mineSetup(d mineDirs, seed int64) ([]string, time.Duration, error) {
	// Each timed step starts with no dirty data left by the steps before.
	syscall.Sync()
	_, gen, err := e.run("corpusgen", corpusArgs(e.mineConfig(), "-out", d.corpus)...)
	if err != nil {
		return nil, 0, err
	}
	held, err := heldBack(d.corpus, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := moveAll(held, d.corpus, d.stash); err != nil {
		return nil, 0, err
	}
	syscall.Sync()
	_, cold, err := e.run("diffcode", "-corpus", d.corpus, "-cache-dir", d.cache)
	if err != nil {
		return nil, 0, err
	}
	if err := moveAll(held, d.stash, d.corpus); err != nil {
		return nil, 0, err
	}
	return held, gen.Wall + cold.Wall, nil
}

// storeFiles lists the files of the artifact store.
func storeFiles(dir string) (map[string]bool, error) {
	out := map[string]bool{}
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			out[p] = true
		}
		return nil
	})
	return out, err
}

// resetStore deletes every store file written since keep was listed, so
// each rerun meets the store exactly as the cold run left it.
func resetStore(dir string, keep map[string]bool) error {
	now, err := storeFiles(dir)
	if err != nil {
		return err
	}
	for p := range now {
		if !keep[p] {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}

var minedRe = regexp.MustCompile(`(?m)^mined ([0-9]+) code changes`)

func minedCount(out []byte) (int, error) {
	m := minedRe.FindSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("diffcode output has no mined-changes line")
	}
	return strconv.Atoi(string(m[1]))
}

// measureMine times `diffcode -corpus D' -cache-dir C` on the full history
// against a store filled from the held-back history, and checks every
// output against a run with no store.
func measureMine(e *env, seed int64, seconds int) (*result, error) {
	var d mineDirs
	res := newResult()
	var setup []float64
	for i := 0; i < 3; i++ {
		d = newMineDirs(e.work, i)
		_, took, err := e.mineSetup(d, seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, took.Seconds())
	}
	keep, err := storeFiles(d.cache)
	if err != nil {
		return nil, err
	}
	want, _, err := e.run("diffcode", "-corpus", d.corpus)
	if err != nil {
		return nil, err
	}
	changes, err := minedCount(want)
	if err != nil {
		return nil, err
	}

	var wall, cpu, rss []float64
	start := time.Now()
	for i := 0; ; i++ {
		next := time.Duration(i) * rerunInterval
		if i > 0 && next >= time.Duration(seconds)*time.Second {
			break
		}
		time.Sleep(next - time.Since(start))
		if err := resetStore(d.cache, keep); err != nil {
			return nil, err
		}
		syscall.Sync()
		out, st, err := e.run("diffcode", "-corpus", d.corpus, "-cache-dir", d.cache)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if !bytes.Equal(out, want) {
			res.fail("diffcode output from the warm store differs from the run with no store")
		}
		wall = append(wall, st.Wall.Seconds())
		cpu = append(cpu, st.CPU.Seconds())
		rss = append(rss, st.RSSMB)
	}
	n := len(wall)
	res.set("wall_s", median(wall), n)
	res.set("cpu_s", median(cpu), n)
	res.set("peak_rss_mb", median(rss), n)
	res.set("setup_s", median(setup), len(setup))
	res.set("p50_ms", 1000*median(wall), n)
	res.set("capacity_rps", float64(changes)/median(wall), n)
	res.show("p99_ms", 1000*quantile(wall, 0.99), "ms", n)
	res.show("fail_share", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
	res.notes = append(res.notes,
		fmt.Sprintf("# mine-rerun: %d mined code changes; p50_ms and p99_ms are over whole diffcode reruns, capacity_rps is mined changes per second", changes))
	return res, nil
}

// traceMine reads the artifact store's counters from one warm rerun's
// -metrics snapshot, loads the corpus in-process, and sweeps each layer
// over the changes of the held-back commits, which are the rerun's misses.
func traceMine(e *env, seed int64, _ int, t *tracer) (*result, error) {
	d := newMineDirs(e.work, 0)
	res := newResult()
	held, _, err := e.mineSetup(d, seed)
	if err != nil {
		return nil, err
	}
	want, _, err := e.run("diffcode", "-corpus", d.corpus)
	if err != nil {
		return nil, err
	}
	metricsPath := filepath.Join(e.work, "metrics.json")
	out, _, err := e.run("diffcode", "-corpus", d.corpus, "-cache-dir", d.cache, "-metrics", metricsPath)
	if err != nil {
		return nil, err
	}
	res.attempted++
	if !bytes.Equal(out, want) {
		res.fail("diffcode output from the warm store differs from the run with no store")
	}
	b, err := os.ReadFile(metricsPath)
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", metricsPath, err)
	}
	artifactMetrics(res, snap.Counters)
	res.set("artifact.store_mb", dirMB(d.cache), 0)

	watch := startRuntimeWatch()
	t.do("corpus.generate", func() { corpus.Generate(e.mineConfig()) })
	var c *corpus.Corpus
	t.do("corpus.load", func() { c, err = corpus.Load(d.corpus) })
	if err != nil {
		return nil, err
	}
	var ccs []mining.CodeChange
	t.do("mining.collect", func() { ccs = mining.Collect(c, mining.Options{}) })
	tot := t.totalTimes()
	res.set("corpus.generate_s", tot["corpus.generate"].Seconds(), 0)
	res.set("corpus.load_s", tot["corpus.load"].Seconds(), 0)
	res.set("mining.collect_s", tot["mining.collect"].Seconds(), 0)
	res.set("mining.changes", float64(len(ccs)), 0)

	// The held-back commits, by project and commit ID.
	isHeld := map[string]bool{}
	for _, p := range held {
		meta, err := os.ReadFile(filepath.Join(d.corpus, p, "meta.txt"))
		if err != nil {
			return nil, err
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(string(meta), "id="), "\n")
		isHeld[strings.SplitN(p, string(filepath.Separator), 2)[0]+"@"+id] = true
	}
	var misses []mining.CodeChange
	for _, cc := range ccs {
		if isHeld[cc.Meta.Project+"@"+cc.Meta.Commit] {
			misses = append(misses, cc)
		}
	}
	c, ccs = nil, nil
	m := newMeter(t)
	reg := obs.NewRegistry()
	m.changeSweep(misses, analysisOptions(evalSettings(reg)), 5, reg)
	if err := m.goldenSweep(e.root, res); err != nil {
		return nil, err
	}
	m.report(res)
	watch.stop(res)
	res.notes = append(res.notes, fmt.Sprintf("# mine-rerun: %d held-back commit(s), %d of them mined", len(held), len(misses)))
	return res, nil
}
