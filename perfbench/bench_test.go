package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/corpus"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestQuantileStaysWithinSamples(t *testing.T) {
	samples := []float64{2.4, 0.1, 9.7, 3.3, 3.3, 5.0, 0.9}
	lo, hi := 0.1, 9.7
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		v := quantile(samples, q)
		if v < lo || v > hi {
			t.Errorf("quantile(%v) = %v, outside [%v, %v]", q, v, lo, hi)
		}
	}
	if got := median([]float64{1, 3, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{1, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{}
	add := func(parent int, name string, start, end time.Duration) {
		tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Name: name, Start: start, End: end})
	}
	add(-1, "root", 0, 100)
	add(0, "a", 10, 30)
	add(0, "b", 25, 40) // overlaps a: the union 10..40 is covered
	add(2, "c", 30, 35)
	add(0, "a", 50, 60)
	self := tr.selfTimes()
	want := map[string]time.Duration{"root": 100 - 30 - 10, "a": 20 + 10, "b": 10, "c": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func TestGoldenVerdict(t *testing.T) {
	pos := golden{name: "P101.java", rule: "P101", positive: true}
	neg := golden{name: "P101_ok.java", rule: "P101", positive: false}
	cases := []struct {
		g     golden
		fired []string
		want  bool
	}{
		{pos, []string{"R3", "P101"}, true},
		{pos, []string{"P102"}, false},
		{neg, []string{"R3"}, true},
		{neg, []string{"P205"}, false},
		{neg, nil, true},
	}
	for _, c := range cases {
		if got := goldenVerdict(c.g, c.fired); got != c.want {
			t.Errorf("goldenVerdict(%s, %v) = %v, want %v", c.g.name, c.fired, got, c.want)
		}
	}
}

// TestSmokeAllWorkloads builds the programs, records expected outputs for a
// tiny corpus, and makes one untraced and one traced run of every workload.
// Each run must pass its correctness gates and emit exactly the metrics
// BENCHMARK.json names, and the traced paper-eval run's core rows must add
// up to its traced wall time.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin")
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/evalrepro", "./cmd/diffcode", "./cmd/diffcoded", "./cmd/corpusgen")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the programs: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	e := &env{
		ctx:      ctx,
		bin:      bin,
		root:     root,
		work:     filepath.Join(tmp, "record"),
		size:     corpus.Config{Scale: 0.1, Projects: 30, ExtraProjects: 4},
		mineSize: corpus.Config{Scale: 0.1, Projects: 30, ExtraProjects: 4},
		testdata: filepath.Join(tmp, "testdata"),
	}
	if err := recordExpected(e); err != nil {
		t.Fatal(err)
	}
	bj := readBenchmarkJSON(t)
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range []string{"paper-eval", "serve-check", "mine-rerun"} {
		for _, traced := range []bool{false, true} {
			out, lines, err := runWorkload(e, w, 1, 1, traced, filepath.Join(tmp, "work"))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%v",
					w, traced, out.Correct, out.Attempted, out.Failed, lines)
			}
			want := names(bj.EndToEnd)
			if traced {
				want = names(bj.PerLayer)
			}
			var got []string
			for name := range out.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", w, traced, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s traced=%v: emitted %s where BENCHMARK.json names %s", w, traced, got[i], want[i])
				}
			}
			if !traced {
				for name, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
			if traced && w == "paper-eval" {
				var sum float64
				for _, c := range coreCalls {
					sum += out.Metrics[c+"_s"].Value
				}
				sum += out.Metrics["core.unattributed_s"].Value
				if wall := out.Metrics["trace.wall_s"].Value; math.Abs(sum-wall) > 1e-6 {
					t.Errorf("core rows add up to %.9fs, traced wall is %.9fs", sum, wall)
				}
			}
		}
	}
}
