package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/summary"
)

// The serve-check traffic mix.
const (
	// serveRate is the fixed request rate of the open-loop phase, a fifth
	// of the closed-loop capacity measured on 2 cores. At 800 req/s a
	// noisy host cut capacity to 860 req/s and the queue never drained.
	serveRate = 400
	// serveConns is how many connections the load generator uses.
	serveConns = 2
	// repeatShare of requests repeat an earlier request byte for byte, so
	// the server's in-memory artifact store serves hits beside misses.
	repeatShare = 0.25
	// whyShare of new requests ask for witness traces.
	whyShare = 0.10
	// goldenShare of requests are rule-pack goldens with a known verdict.
	goldenShare = 0.02
	// lateLimit is the latency limit of late_share.
	lateLimit = 25 * time.Millisecond
	// maxGenLate is how late (p99) the generator itself may send, in the
	// windows p50_ms is taken from, before a run is invalid: beyond it the
	// generator, not the server, fell behind.
	maxGenLate = 20 * time.Millisecond
	// serveCorpusSeed fixes the corpus the request bodies come from; the
	// workload seed picks their order, repeats and witness requests.
	serveCorpusSeed = 1
)

func (e *env) verdictsPath() string { return filepath.Join(e.testdata, "serve-verdicts.tsv.gz") }

// checkBody is the /v1/check request body.
type checkBody struct {
	Sources map[string]string `json:"sources"`
	Context *ruleContext      `json:"context,omitempty"`
	Why     bool              `json:"why,omitempty"`
}

type ruleContext struct {
	Android bool `json:"android,omitempty"`
	MinSDK  int  `json:"min_sdk,omitempty"`
	LPRNG   bool `json:"lprng,omitempty"`
}

// program is one distinct request body: a corpus project's snapshot with
// one commit's version of the changed file, or a rule-pack golden.
type program struct {
	id      string
	sources map[string]string
	ctx     rules.Context
	golden  *golden
}

// request is one request of the generated sequence.
type request struct {
	prog *program
	why  bool
	body []byte
}

// servePool builds the distinct corpus programs, in mining order.
func servePool(cfg corpus.Config) []*program {
	c := corpus.Generate(cfg)
	byName := map[string]*corpus.Project{}
	for _, p := range c.Projects {
		byName[p.Name] = p
	}
	var out []*program
	for _, cc := range mining.Collect(c, mining.Options{}) {
		p := byName[cc.Meta.Project]
		files := make(map[string]string, len(p.Files))
		for k, v := range p.Files {
			files[k] = v
		}
		files[cc.Meta.File] = cc.New
		out = append(out, &program{id: p.Name + "@" + cc.Meta.Commit, sources: files, ctx: core.ContextOf(p)})
	}
	return out
}

func marshalRequest(p *program, why bool) []byte {
	b := checkBody{Sources: p.sources, Why: why}
	if p.ctx != (rules.Context{}) {
		b.Context = &ruleContext{Android: p.ctx.Android, MinSDK: p.ctx.MinSDKVersion, LPRNG: p.ctx.HasLPRNG}
	}
	out, err := json.Marshal(b)
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return out
}

// sequence draws n requests from the pool and the goldens with the
// workload seed: a seeded order over the pool, repeats of earlier requests
// and goldens mixed in at their stated shares.
func sequence(seed int64, pool []*program, goldens []*program, n int) []*request {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(pool))
	var sent []*request
	out := make([]*request, 0, n)
	next := 0
	for len(out) < n {
		r := rng.Float64()
		switch {
		case r < goldenShare:
			g := goldens[rng.Intn(len(goldens))]
			out = append(out, &request{prog: g, body: marshalRequest(g, false)})
		case r < goldenShare+repeatShare && len(sent) > 0:
			out = append(out, sent[rng.Intn(len(sent))])
		default:
			p := pool[perm[next%len(perm)]]
			next++
			why := rng.Float64() < whyShare
			req := &request{prog: p, why: why, body: marshalRequest(p, why)}
			sent = append(sent, req)
			out = append(out, req)
		}
	}
	return out
}

func goldenPrograms(root string) ([]*program, error) {
	gs, err := loadGoldens(root)
	if err != nil {
		return nil, err
	}
	out := make([]*program, len(gs))
	for i := range gs {
		g := gs[i]
		out[i] = &program{id: g.name, sources: map[string]string{g.name: g.src}, golden: &g}
	}
	return out, nil
}

// verdict renders the rule IDs a response reports, sorted and distinct.
func verdict(ids []string) string {
	sort.Strings(ids)
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return strings.Join(out, ",")
}

var ruleKey = []byte(`"rule":"`)

// responseRules extracts the violated rule IDs from a /v1/check response
// body without decoding the rest of it (witness traces carry no "rule").
func responseRules(body []byte) []string {
	var ids []string
	for {
		i := bytes.Index(body, ruleKey)
		if i < 0 {
			return ids
		}
		body = body[i+len(ruleKey):]
		j := bytes.IndexByte(body, '"')
		if j < 0 {
			return ids
		}
		ids = append(ids, string(body[:j]))
		body = body[j:]
	}
}

// readVerdicts loads the recorded verdicts: program id → rule IDs.
func (e *env) readVerdicts() (map[string]string, error) {
	b, err := readGzip(e.verdictsPath())
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		id, v, _ := strings.Cut(line, "\t")
		out[id] = v
	}
	return out, nil
}

// checkVerdict compares one response's rule IDs with the known answer.
func checkVerdict(p *program, ids []string, want map[string]string) error {
	if p.golden != nil {
		if !goldenVerdict(*p.golden, ids) {
			return fmt.Errorf("golden %s fired %v", p.id, ids)
		}
		return nil
	}
	exp, ok := want[p.id]
	if !ok {
		return fmt.Errorf("no recorded verdict for %s", p.id)
	}
	if got := verdict(ids); got != exp {
		return fmt.Errorf("%s fired %q, recorded %q", p.id, got, exp)
	}
	return nil
}

// server is one running diffcoded process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// servingPrefix precedes the address in diffcoded's start-up line.
const servingPrefix = "serving on http://"

// startServer launches diffcoded with the two rule packs and waits until
// /readyz answers 200. It returns the time that took.
func (e *env) startServer() (*server, time.Duration, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	for _, p := range rulePackPaths {
		args = append(args, "-rules", p)
	}
	cmd := exec.Command(e.prog("diffcoded"), args...)
	cmd.Dir = e.root
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Read stderr to the end so the server never blocks on it.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, servingPrefix); i >= 0 {
				f := strings.Fields(line[i+len(servingPrefix):])
				if len(f) > 0 {
					select {
					case addrc <- f[0]:
					default:
					}
				}
			}
		}
		close(s.done)
	}()
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.done:
		return fail(fmt.Errorf("diffcoded exited before serving"))
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("diffcoded did not report its address"))
	case <-e.ctx.Done():
		return fail(e.ctx.Err())
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("diffcoded not ready after 30s"))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and returns the process's peak
// RSS in MB.
func (s *server) stop() (float64, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(20*time.Second, func() { s.cmd.Process.Kill() })
	defer timer.Stop()
	<-s.done
	err := s.cmd.Wait()
	var rss float64
	if ps := s.cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) / 1024
		}
	}
	return rss, err
}

// cpuTime reads the process's user+system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

func (s *server) metrics() (*obs.Snapshot, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &snap, nil
}

// outcome is what one request got.
type outcome struct {
	latency time.Duration // from when it was due (open loop) or sent
	due     time.Duration // since the phase started
	done    time.Duration // completion, since the phase started
	err     error
}

// sender posts requests on one kept-alive connection.
type sender struct {
	client *http.Client
	url    string
	want   map[string]string
}

func newSender(base string, want map[string]string) *sender {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &sender{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: base + "/v1/check", want: want}
}

// rules posts one request and returns the rule IDs its response reports.
func (s *sender) rules(r *request) ([]string, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", r.prog.id, resp.StatusCode, body)
	}
	return responseRules(body), nil
}

// send posts one request and checks its verdict.
func (s *sender) send(r *request) error {
	ids, err := s.rules(r)
	if err != nil {
		return err
	}
	return checkVerdict(r.prog, ids, s.want)
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// newSenders opens the generator's serveConns connections.
func newSenders(base string, want map[string]string) []*sender {
	out := make([]*sender, serveConns)
	for i := range out {
		out[i] = newSender(base, want)
	}
	return out
}

// openLoop sends reqs at a fixed rate over serveConns connections and
// times each from when it was due. It also returns how late the generator
// itself handed each request over.
func openLoop(ctx context.Context, senders []*sender, reqs []*request, rate float64) ([]outcome, []time.Duration) {
	out := make([]outcome, len(reqs))
	genLate := make([]time.Duration, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for i := range queue {
				due := time.Duration(i) * interval
				err := s.send(reqs[i])
				done := time.Since(start)
				out[i] = outcome{latency: done - due, due: due, done: done, err: err}
			}
		}(s)
	}
	for i := range reqs {
		due := time.Duration(i) * interval
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		genLate[i] = time.Since(start) - due
		if ctx.Err() != nil {
			for j := i; j < len(reqs); j++ {
				out[j].err = ctx.Err()
			}
			break
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, genLate
}

// closedLoop keeps every connection busy for d, each sending its next
// request as soon as the previous one completes. It returns the outcomes
// and the time until the last request completed.
func closedLoop(ctx context.Context, senders []*sender, reqs []*request, d time.Duration) ([]outcome, time.Duration) {
	var mu sync.Mutex
	next := 0
	var out []outcome
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				mu.Lock()
				r := reqs[next%len(reqs)]
				next++
				mu.Unlock()
				t0 := time.Since(start)
				err := s.send(r)
				done := time.Since(start)
				mu.Lock()
				out = append(out, outcome{latency: done - t0, due: t0, done: done, err: err})
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return out, time.Since(start)
}

// tally counts outcomes into res and returns the latencies in ms.
func tally(res *result, outs []outcome) []float64 {
	var lat []float64
	for _, o := range outs {
		res.attempted++
		if o.err != nil {
			if res.failed < 5 {
				res.problems = append(res.problems, o.err.Error())
			}
			res.failed++
			continue
		}
		lat = append(lat, ms(o.latency))
	}
	return lat
}

// serveSetup starts diffcoded several times and keeps the last one up. It
// returns the server and the start-to-ready times.
func (e *env) serveSetup(n int) (*server, []float64, error) {
	var setup []float64
	for i := 0; ; i++ {
		s, d, err := e.startServer()
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, d.Seconds())
		if i == n-1 {
			return s, setup, nil
		}
		if _, err := s.stop(); err != nil {
			return nil, nil, fmt.Errorf("stopping diffcoded: %w", err)
		}
	}
}

// serveInputs builds the request sequence for a run: warm-up, the
// fixed-rate phase, and enough for the closed-loop phase to cycle through.
func (e *env) serveInputs(seed int64, n int) ([]*request, map[string]string, error) {
	want, err := e.readVerdicts()
	if err != nil {
		return nil, nil, err
	}
	goldens, err := goldenPrograms(e.root)
	if err != nil {
		return nil, nil, err
	}
	return sequence(seed, servePool(e.corpusConfig(serveCorpusSeed)), goldens, n), want, nil
}

// phases splits the measured seconds: 1 s warm-up at the fixed rate, then
// three quarters at the fixed rate and the rest closed-loop.
func phases(seconds int) (warm, open, closed int) {
	warm = serveRate
	open = serveRate * seconds * 3 / 4
	if open < serveRate {
		open = serveRate
	}
	closed = seconds - seconds*3/4
	if closed < 1 {
		closed = 1
	}
	return warm, open, closed
}

// latencyWindow splits the fixed-rate phase for quietLatencies.
const latencyWindow = time.Second

// quietLatencies returns the latencies in ms of the successful requests in
// the quietest quarter of the phase's full latencyWindows, ranked by how
// late the generator itself sent in each (its p99 lateness), the
// generator's lateness in ms over those windows, and how many windows that
// is. When the shared machine stalls the benchmark, the generator runs late
// along with the server; those windows measure the machine rather than the
// server, and are left out.
func quietLatencies(outs []outcome, genLate []time.Duration, phase time.Duration) (lat, late []float64, windows int) {
	n := int(phase / latencyWindow)
	if n == 0 {
		n = 1
	}
	type window struct {
		late []float64
		lat  []float64
	}
	ws := make([]window, n)
	for i, o := range outs {
		w := int(o.due / latencyWindow)
		if w >= n {
			continue
		}
		ws[w].late = append(ws[w].late, ms(genLate[i]))
		if o.err == nil {
			ws[w].lat = append(ws[w].lat, ms(o.latency))
		}
	}
	sort.SliceStable(ws, func(i, j int) bool { return quantile(ws[i].late, 0.99) < quantile(ws[j].late, 0.99) })
	k := (n + 3) / 4
	for _, w := range ws[:k] {
		lat = append(lat, w.lat...)
		late = append(late, w.late...)
	}
	return lat, late, k
}

func measureServe(e *env, seed int64, seconds int) (*result, error) {
	warmN, openN, closedSec := phases(seconds)
	reqs, want, err := e.serveInputs(seed, warmN+openN+4000*closedSec)
	if err != nil {
		return nil, err
	}
	s, setup, err := e.serveSetup(5)
	if err != nil {
		return nil, err
	}
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	res := newResult()
	senders := newSenders(s.base, want)
	defer func() {
		for _, sd := range senders {
			sd.close()
		}
	}()

	openLoop(e.ctx, senders, reqs[:warmN], serveRate)
	cpu0, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	outs, genLate := openLoop(e.ctx, senders, reqs[warmN:warmN+openN], serveRate)
	cpu1, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	lat := tally(res, outs)
	late := 0
	for _, o := range outs {
		if o.err != nil || o.latency > lateLimit {
			late++
		}
	}
	var genMs []float64
	for _, g := range genLate {
		genMs = append(genMs, ms(g))
	}
	var last time.Duration
	for _, o := range outs {
		if o.done > last {
			last = o.done
		}
	}

	closedDur := time.Duration(closedSec) * time.Second
	couts, took := closedLoop(e.ctx, senders, reqs[warmN+openN:], closedDur)
	cpu2, err := s.cpuTime()
	if err != nil {
		return nil, err
	}
	tally(res, couts)
	completed := 0
	for _, o := range couts {
		if o.err == nil && o.done <= closedDur {
			completed++
		}
	}
	if e.ctx.Err() != nil {
		return nil, e.ctx.Err()
	}
	rss, err := s.stop()
	s = nil
	if err != nil {
		return nil, fmt.Errorf("diffcoded drain: %w", err)
	}
	n := len(lat)
	res.set("wall_s", last.Seconds(), 0)
	res.set("cpu_s", (cpu1 - cpu0).Seconds(), 0)
	res.set("peak_rss_mb", rss, 0)
	res.set("setup_s", median(setup), len(setup))
	quiet, quietLate, quietN := quietLatencies(outs, genLate, time.Duration(len(outs))*time.Second/serveRate)
	if g := quantile(quietLate, 0.99); g > ms(maxGenLate) {
		res.fail("invalid run: even in the quietest windows the generator's p99 lateness %.2f ms exceeds %v", g, maxGenLate)
	}
	res.set("p50_ms", median(quiet), len(quiet))
	res.set("capacity_rps", float64(completed)/(cpu2-cpu1).Seconds(), completed)
	res.show("capacity_rps.wall", float64(completed)/closedDur.Seconds(), "1/s", completed)
	res.show("p99_ms", quantile(quiet, 0.99), "ms", len(quiet))
	res.show("p50_ms.all", median(lat), "ms", n)
	res.show("p99_ms.all", quantile(lat, 0.99), "ms", n)
	res.show("late_share", float64(late)/float64(len(outs)), "ratio", len(outs))
	res.show("fail_share", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
	res.show("gen.late_ms", quantile(quietLate, 0.99), "ms", len(quietLate))
	res.show("gen.late_ms.all", quantile(genMs, 0.99), "ms", len(genMs))
	res.notes = append(res.notes,
		fmt.Sprintf("# serve-check: open loop of %d requests at %d/s on %d connections; p50_ms and p99_ms are over the %d quietest of its %v windows, the .all rows over all of it; late_share counts requests over %v",
			len(outs), serveRate, serveConns, quietN, latencyWindow, lateLimit),
		fmt.Sprintf("# serve-check: closed loop of %d requests in %.2fs; capacity_rps is requests per second of diffcoded CPU, capacity_rps.wall per second of wall time; wall_s spans the open-loop phase, cpu_s is diffcoded's CPU over it",
			len(couts), took.Seconds()))
	return res, nil
}

// traceServe repeats the fixed-rate phase against diffcoded and reads its
// /metrics, then replays the same requests through the checker in-process
// with one worker for its service time, and sweeps each layer over the
// distinct programs.
func traceServe(e *env, seed int64, seconds int, t *tracer) (*result, error) {
	res := newResult()
	watch := startRuntimeWatch()
	warmN, openN, _ := phases(seconds)
	openN /= 2
	var c *corpus.Corpus
	t.do("corpus.generate", func() { c = corpus.Generate(e.corpusConfig(serveCorpusSeed)) })
	res.set("corpus.generate_s", t.totalTimes()["corpus.generate"].Seconds(), 0)
	var ccs []mining.CodeChange
	t.do("mining.collect", func() { ccs = mining.Collect(c, mining.Options{}) })
	res.set("mining.collect_s", t.totalTimes()["mining.collect"].Seconds(), 0)
	res.set("mining.changes", float64(len(ccs)), 0)
	c, ccs = nil, nil

	reqs, want, err := e.serveInputs(seed, warmN+openN)
	if err != nil {
		return nil, err
	}
	s, _, err := e.serveSetup(1)
	if err != nil {
		return nil, err
	}
	senders := newSenders(s.base, want)
	openLoop(e.ctx, senders, reqs[:warmN], serveRate)
	outs, genLate := openLoop(e.ctx, senders, reqs[warmN:], serveRate)
	for _, sd := range senders {
		sd.close()
	}
	snap, err := s.metrics()
	if _, serr := s.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	lat := tally(res, outs)
	var genMs []float64
	for _, g := range genLate {
		genMs = append(genMs, ms(g))
	}
	res.set("gen.late_ms", quantile(genMs, 0.99), len(genMs))
	artifactMetrics(res, snap.Counters)
	res.set("serve.shed", float64(snap.Counters["serve.shed"]), 0)
	if h, ok := snap.Histograms["serve.queue.wait_us"]; ok && h.Count > 0 {
		res.set("serve.queue_wait_ms", float64(h.Sum)/float64(h.Count)/1000, int(h.Count))
	}

	// The checker behind /v1/check, in-process: one shared artifact store
	// and summary table, a fresh checker per request, as the server does.
	ruleSet, err := activeRules(e.root)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	st := artifact.New(artifact.Config{Metrics: reg})
	copts := core.Options{BudgetSteps: 2_000_000, Workers: 1, Metrics: reg, Artifacts: st, Summaries: summary.NewTable(st, reg)}
	var service []float64
	root := t.begin("checker")
	for _, r := range reqs {
		id := t.begin("checker.request")
		out, err := core.NewChecker(ruleSet, copts).CheckRequest(context.Background(), r.prog.sources, r.prog.ctx, r.why)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("checking %s: %w", r.prog.id, err)
		}
		var ids []string
		for _, v := range out.Violations {
			ids = append(ids, v.Rule.ID)
		}
		if err := checkVerdict(r.prog, ids, want); err != nil {
			res.fail("in-process: %v", err)
		}
		service = append(service, ms(t.duration(id)))
	}
	t.end(root)
	res.set("trace.wall_s", t.duration(root).Seconds(), 0)
	p50 := median(service)
	res.set("checker.service_p50_ms", p50, len(service))
	res.set("checker.service_p99_ms", quantile(service, 0.99), len(service))
	res.set("serve.overhead_ms", median(lat)-p50, len(lat))

	// Layer sweeps over each distinct program once, with witness traces
	// where the request asked why.
	m := newMeter(t)
	seen := map[*request]bool{}
	for _, r := range reqs {
		if seen[r] {
			continue
		}
		seen[r] = true
		aopts := analysisOptions(core.Options{Workers: 1, Metrics: obs.NewRegistry()})
		aopts.Provenance = r.why
		m.check(m.program(r.prog.sources, aopts), r.prog.ctx, ruleSet, r.why)
	}
	if err := m.goldenSweep(e.root, res); err != nil {
		return nil, err
	}
	m.report(res)
	watch.stop(res)
	return res, nil
}
