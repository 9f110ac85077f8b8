package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

// fakeClock is a deterministic clock advancing one millisecond per read.
type fakeClock struct{ ticks atomic.Int64 }

func (c *fakeClock) now() time.Time {
	t := c.ticks.Add(1)
	return time.Unix(0, t*int64(time.Millisecond))
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(5)
	r.Histogram("x").Observe(3)
	sp := r.StartSpan("stage")
	sp.End()
	if got := r.Summary(); got != "" {
		t.Fatalf("nil registry summary = %q, want empty", got)
	}
	s := TakeSnapshot(r, false)
	if s.Schema != SchemaVersion || len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("steps").Inc()
				r.Gauge("inflight").Set(int64(w))
				r.Histogram("latency").Observe(int64(i))
				sp := r.StartSpanTask("analyze", "task")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("steps").Value(); got != workers*perWorker {
		t.Fatalf("steps = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("latency")
	if h.Count() != workers*perWorker {
		t.Fatalf("latency count = %d", h.Count())
	}
	if h.min.Load() != 0 || h.max.Load() != perWorker-1 {
		t.Fatalf("min/max = %d/%d", h.min.Load(), h.max.Load())
	}
	if got := r.Counter("span.analyze.count").Value(); got != workers*perWorker {
		t.Fatalf("span count = %d", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// Conservative power-of-two bounds clamped to [min, max]: p50 of
	// 1..100 falls in the <=64 bucket, p99 in <=128, which the maximum
	// (100) caps.
	if got := h.Quantile(0.5); got != 64 {
		t.Errorf("p50 = %d, want 64", got)
	}
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %d", h.Sum())
	}
	h.Observe(-7) // clamps to zero
	if h.min.Load() != 0 {
		t.Errorf("min after negative observe = %d", h.min.Load())
	}
}

// A quantile never lies outside the observed range, even where its
// power-of-two bucket bound would.
func TestHistogramQuantileClampedToRange(t *testing.T) {
	h := newHistogram()
	for _, v := range []int64{300, 400, 450} { // all in the <=512 bucket
		h.Observe(v)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != 450 {
			t.Errorf("Quantile(%v) = %d, want the maximum 450", q, got)
		}
	}
	h = newHistogram()
	h.Observe(1 << 40) // past the last regular bucket
	if got := h.Quantile(0.5); got != 1<<40 {
		t.Errorf("overflow Quantile(0.5) = %d, want %d", got, int64(1)<<40)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	clock := &fakeClock{}
	r := NewRegistryClock(clock.now)
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("z.gauge").Set(9)
	r.Histogram("steps").Observe(100)
	sp := r.StartSpanTask("parse", "Main.java")
	sp.End()

	b1, err := TakeSnapshot(r, false).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := TakeSnapshot(r, false).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", b1, b2)
	}
	// Stable (sorted) key order in the JSON text itself.
	if strings.Index(string(b1), `"a.count"`) > strings.Index(string(b1), `"b.count"`) {
		t.Fatalf("counter keys not sorted:\n%s", b1)
	}
	var decoded Snapshot
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Schema != SchemaVersion {
		t.Fatalf("schema = %q", decoded.Schema)
	}
	if decoded.Counters["b.count"] != 2 {
		t.Fatalf("counters = %v", decoded.Counters)
	}
	if decoded.Slowest["parse"].Task != "Main.java" {
		t.Fatalf("slowest = %v", decoded.Slowest)
	}
}

func TestSummaryGolden(t *testing.T) {
	clock := &fakeClock{}
	r := NewRegistryClock(clock.now)
	// A fixed two-change run: each analyze span is opened and closed with
	// one clock read apiece, so the fake clock gives every span exactly
	// 1ms of wall time.
	for _, task := range []string{"change p@c1:A.java", "change p@c2:B.java"} {
		sp := r.StartSpanTask("analyze", task)
		r.Counter("analysis.steps").Add(500)
		r.Histogram("analysis.steps_per_change").Observe(500)
		sp.End()
	}
	r.Counter("mining.changes_mined").Add(2)
	r.Gauge("workers").Set(1)

	want := strings.Join([]string{
		"stage            runs      total       mean        p50        p90        max  slowest",
		"analyze             2        2ms        1ms        1ms        1ms        1ms  change p@c1:A.java",
		"counters",
		"  analysis.steps                                 1000",
		"  mining.changes_mined                              2",
		"gauges",
		"  workers                                           1",
		"distributions",
		"  analysis.steps_per_change              n=2 sum=1000 min=500 p50=500 p90=500 max=500",
		"",
	}, "\n")
	if got := r.Summary(); got != want {
		t.Fatalf("summary mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestFoldLedger(t *testing.T) {
	l := resilience.NewLedger()
	l.Record(resilience.NewEntry("t1", resilience.PhaseParse, errors.New("boom")))
	l.Record(resilience.NewEntry("t2", resilience.PhaseAnalyze,
		resilience.ErrBudgetExhausted))
	r := NewRegistry()
	FoldLedger(r, l)
	if got := r.Counter("failures.total").Value(); got != 2 {
		t.Fatalf("failures.total = %d", got)
	}
	if got := r.Counter("failures.phase.parse").Value(); got != 1 {
		t.Fatalf("failures.phase.parse = %d", got)
	}
	if got := r.Counter("failures.category.budget").Value(); got != 1 {
		t.Fatalf("failures.category.budget = %d", got)
	}
	// Nil combinations are no-ops, not crashes.
	FoldLedger(nil, l)
	FoldLedger(r, nil)
}

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(7)
	addr, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("bad /debug/vars JSON: %v\n%s", err, body)
	}
	if s.Counters["hits"] != 7 {
		t.Fatalf("hits = %d", s.Counters["hits"])
	}
	resp2, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}
	resp3, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("/debug/metrics Content-Type = %q", ct)
	}
	prom, _ := io.ReadAll(resp3.Body)
	if !strings.Contains(string(prom), "hits_total 7") {
		t.Fatalf("/debug/metrics missing counter:\n%s", prom)
	}
}
