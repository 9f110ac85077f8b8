package obs

import (
	"strings"
	"testing"
)

func TestSnapshotQuantilesAndExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 90; i++ {
		h.Observe(10) // bucket le=16
	}
	for i := 0; i < 10; i++ {
		h.ObserveExemplar(5000, "deadbeef00000001") // bucket le=8192
	}
	s := TakeSnapshot(r, false)
	hs := s.Histograms["lat"]
	if hs.P50 != 16 || hs.P90 != 16 {
		t.Errorf("P50/P90 = %d/%d, want 16/16", hs.P50, hs.P90)
	}
	if hs.P99 != 5000 { // bucket le=8192, clamped to the maximum
		t.Errorf("P99 = %d, want 5000", hs.P99)
	}
	if hs.Exemplar != "deadbeef00000001" {
		t.Errorf("Exemplar = %q", hs.Exemplar)
	}
	// Quantiles agree with the live accessor the snapshot derives from.
	if hs.P99 != h.Quantile(0.99) {
		t.Errorf("snapshot P99 %d != live %d", hs.P99, h.Quantile(0.99))
	}
}

func TestExemplarKeepsSlowest(t *testing.T) {
	h := newHistogram()
	h.ObserveExemplar(100, "slow")
	h.ObserveExemplar(10, "fast")
	if h.Exemplar() != "slow" {
		t.Errorf("Exemplar = %q, want the slowest observation's label", h.Exemplar())
	}
	h.ObserveExemplar(200, "slower")
	if h.Exemplar() != "slower" {
		t.Errorf("Exemplar = %q after a larger observation", h.Exemplar())
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x") // must not panic
	if nilH.Exemplar() != "" {
		t.Error("nil histogram has an exemplar")
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.check.latency_us": "serve_check_latency_us",
		"pool.tasks":             "pool_tasks",
		"9lives":                 "_9lives",
		"a-b c":                  "a_b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(7)
	r.Gauge("pool.workers").Set(4)
	h := r.Histogram("serve.check.latency_us")
	h.Observe(3)  // le=4
	h.Observe(3)  // le=4
	h.Observe(90) // le=128

	var sb strings.Builder
	if err := WriteProm(&sb, r); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE serve_requests_total counter
serve_requests_total 7
# TYPE pool_workers gauge
pool_workers 4
# TYPE serve_check_latency_us histogram
serve_check_latency_us_bucket{le="4"} 2
serve_check_latency_us_bucket{le="128"} 3
serve_check_latency_us_bucket{le="+Inf"} 3
serve_check_latency_us_sum 96
serve_check_latency_us_count 3
`
	if sb.String() != want {
		t.Errorf("prom output:\n%s\nwant:\n%s", sb.String(), want)
	}
	// Byte-stable across scrapes.
	var sb2 strings.Builder
	WriteProm(&sb2, r)
	if sb.String() != sb2.String() {
		t.Error("prom output not deterministic")
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var sb strings.Builder
	if err := WriteProm(&sb, nil); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry: err=%v out=%q", err, sb.String())
	}
}
