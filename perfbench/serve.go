package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"asyncagree/internal/registry"
	"asyncagree/internal/service"
	"asyncagree/internal/sim"
)

// The serve workload drives an in-process service.Server (the agreed
// daemon's handler, with a journal file) behind a loopback listener. One
// open-loop generator sends requests on a fixed schedule over at most two
// keep-alive connections and times every request from its due time, so a
// stall charges the requests queued behind it.

// Request kinds of the mix.
const (
	kindRun      = iota // stateless /run of a cheap scenario
	kindBracha          // /run of bracha/full 13:4 (message path, ~16x dearer)
	kindInstance        // POST /instances/{name}/run (journaled write)
	kindTrace           // /run?trace=1 (NDJSON event stream)
	numKinds
)

var kindNames = [numKinds]string{"run", "bracha", "instance", "trace"}

// mixWeights are the per-kind shares of the mix, in percent.
var mixWeights = [numKinds]int{77, 2, 20, 1}

func scenario(alg, adv string, n, t int) service.Scenario {
	return service.Scenario{Algorithm: alg, Adversary: adv, Scheduler: "adversary",
		Input: "split", N: n, T: t, MaxWindows: 20000}
}

// runScenarios are the cheap stateless scenarios (about 1 ms each unloaded).
var runScenarios = []service.Scenario{
	scenario("core", "full", 12, 1),
	scenario("core", "storm", 12, 1),
	scenario("benor", "subsets", 9, 2),
	scenario("paxos", "full", 5, 2),
	scenario("core", "splitvote", 24, 3),
}

var brachaScenario = scenario("bracha", "full", 13, 4)

// traceScenario is the traced request's scenario: its NDJSON stream is
// 0.8 to 0.9 MB.
var traceScenario = scenario("core", "full", 12, 1)

// instanceScenarios back the named instances i0..i3; instance operations
// rotate over them so that consecutive writes rarely wait for each other.
var instanceScenarios = []service.Scenario{
	scenario("core", "full", 12, 1),
	scenario("benor", "subsets", 9, 2),
	scenario("paxos", "full", 5, 2),
	scenario("core", "storm", 12, 1),
}

// request is one scheduled request of a rung.
type request struct {
	id   int64
	due  time.Duration // offset from the rung's start
	kind int
	sc   service.Scenario
	seed uint64 // /run seed; for an instance run, the expected seq (= seed)
	inst int    // instance index for kindInstance
	op   int    // per-instance operation ordinal (0-based, across the run)
}

// outcome is what the generator observed for one request.
type outcome struct {
	sent, done time.Time
	late       time.Duration // send time minus due time
	latency    time.Duration // completion minus due time
	status     int
	err        error
	bytes      int
	result     *service.Result
}

func (o *outcome) failed() bool {
	return o.err != nil || o.status < 200 || o.status > 299
}

// schedule lays out count requests at a constant rate: request i is due
// i/rate seconds after the rung starts. Kinds and seeds come from the
// benchmark seed; instance operations are numbered from *instOps so that
// each instance's sequence continues across rungs.
func schedule(seed uint64, rung int, rate float64, count int, instOps *int, firstID int64) []request {
	reqs := make([]request, count)
	for i := range reqs {
		r := request{id: firstID + int64(i), due: time.Duration(float64(i) / rate * float64(time.Second))}
		x := int(deriveSeed(seed, stream(rung, 0), i) % 100)
		for k, w := range mixWeights {
			if x < w {
				r.kind = k
				break
			}
			x -= w
		}
		switch r.kind {
		case kindRun:
			r.sc = runScenarios[deriveSeed(seed, stream(rung, 1), i)%uint64(len(runScenarios))]
			r.seed = deriveSeed(seed, stream(rung, 2), i)
		case kindBracha:
			r.sc, r.seed = brachaScenario, deriveSeed(seed, stream(rung, 2), i)
		case kindTrace:
			r.sc, r.seed = traceScenario, deriveSeed(seed, stream(rung, 2), i)
		case kindInstance:
			r.op = *instOps
			r.inst = r.op % len(instanceScenarios)
			r.sc = instanceScenarios[r.inst]
			r.seed = uint64(r.op/len(instanceScenarios) + 1)
			*instOps++
		}
		reqs[i] = r
	}
	return reqs
}

// stream numbers the input streams of a rung (kind, scenario, seed), apart
// from every other rung's and from the sweeps' streams.
func stream(rung, j int) int { return 1000 + 3*rung + j }

// instanceName names instance i.
func instanceName(i int) string { return "i" + strconv.Itoa(i) }

// server is one running service instance behind a loopback listener.
type server struct {
	journal string
	svc     *service.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve has returned
	url     string
	clients [2]*http.Client
	mw      *middleware // nil on untraced servers
}

// startServer builds a server with a fresh journal in a new directory under
// base, creates the instances, warms the engine pools with one direct trial
// per scenario, and opens both client connections.
func startServer(base string, traced bool, tr *tracer) (*server, error) {
	dir, err := os.MkdirTemp(base, "serve-")
	if err != nil {
		return nil, err
	}
	s := &server{journal: filepath.Join(dir, "journal.jsonl"), served: make(chan struct{})}
	s.svc, err = service.New(service.Config{JournalPath: s.journal})
	if err != nil {
		return nil, err
	}
	var handler http.Handler = s.svc
	if traced {
		s.mw = newMiddleware(s.svc, tr)
		handler = s.mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: handler}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	s.url = "http://" + ln.Addr().String()
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	for i, sc := range instanceScenarios {
		body, _ := json.Marshal(service.CreateInstanceRequest{Scenario: sc}) // a plain struct cannot fail to encode
		st, _, err := s.do(0, http.MethodPut, "/instances/"+instanceName(i), body, 0)
		if err != nil || st != http.StatusCreated {
			s.stop()
			return nil, fmt.Errorf("create instance %d: status %d: %v", i, st, err)
		}
	}
	for _, sc := range append(append([]service.Scenario{brachaScenario}, runScenarios...), instanceScenarios...) {
		if _, err := directRun(sc, 1); err != nil {
			s.stop()
			return nil, err
		}
	}
	for i := range s.clients {
		if st, _, err := s.do(i, http.MethodGet, "/healthz", nil, 0); err != nil || st != http.StatusOK {
			s.stop()
			return nil, fmt.Errorf("healthz: status %d: %v", st, err)
		}
	}
	return s, nil
}

// do sends one request on client c and reads the whole reply.
func (s *server) do(c int, method, path string, body []byte, id int64) (int, []byte, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if id != 0 {
		req.Header.Set("X-Bench-Id", strconv.FormatInt(id, 10))
	}
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// stop shuts the listener down, waits for in-flight requests and the serve
// loop, and closes the journal.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	for _, c := range s.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *server) readyz() (service.ReadyState, error) {
	rec := httptest.NewRecorder()
	s.svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var st service.ReadyState
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

func journalSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// directRun is the reference: the same trial through the pooled engine,
// without the service in between.
func directRun(sc service.Scenario, seed uint64) (sim.RunResult, error) {
	inputs, err := registry.Inputs(sc.Input, sc.N, seed)
	if err != nil {
		return sim.RunResult{}, err
	}
	return registry.RunPooledTrial(sc.Algorithm, sc.Adversary, sc.Scheduler,
		registry.Params{N: sc.N, T: sc.T, Inputs: inputs, Seed: seed}, sc.MaxWindows)
}

func sameResult(a service.Result, b sim.RunResult) bool {
	return a.FaultKind == "" && a.Windows == b.Windows && a.FirstDecision == b.FirstDecision &&
		a.AllDecided == b.AllDecided && a.Agreement == b.Agreement && a.Validity == b.Validity &&
		a.Decision == int(b.Decision) && a.MaxChain == b.MaxChainDepth
}

// generator replays rungs against one server and keeps per-instance order.
type generator struct {
	s *server

	mu       sync.Mutex
	cond     *sync.Cond
	opsDone  []int // completed operations per instance
	commits  []int // successful runs per instance
	lastSeen []*service.InstanceState
}

func newGenerator(s *server) *generator {
	g := &generator{s: s, opsDone: make([]int, len(instanceScenarios)),
		commits: make([]int, len(instanceScenarios)), lastSeen: make([]*service.InstanceState, len(instanceScenarios))}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// run sends reqs open loop on two workers. Requests are claimed in due
// order; a worker sleeps until its request is due, and an instance
// operation also waits until every earlier operation on its instance has
// completed, so operations on one instance never overlap. With a non-zero
// stop, no request is claimed after it; run returns the outcomes of the
// claimed prefix.
func (g *generator) run(reqs []request, stop time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now()
	var next int
	claimed := len(reqs)
	var claim sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < len(g.s.clients); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				claim.Lock()
				i := next
				if i < claimed && stop > 0 && time.Since(start) >= stop {
					claimed = i
				}
				next++
				claim.Unlock()
				if i >= claimed {
					return
				}
				g.send(c, start, reqs[i], &out[i])
			}
		}(c)
	}
	wg.Wait()
	return out[:claimed]
}

func (g *generator) send(c int, start time.Time, r request, o *outcome) {
	due := start.Add(r.due)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if r.kind == kindInstance {
		g.mu.Lock()
		for g.opsDone[r.inst] < r.op/len(instanceScenarios) {
			g.cond.Wait()
		}
		g.mu.Unlock()
		defer func() {
			g.mu.Lock()
			g.opsDone[r.inst]++
			g.cond.Broadcast()
			g.mu.Unlock()
		}()
	}
	var path string
	var body []byte
	switch r.kind {
	case kindInstance:
		path = "/instances/" + instanceName(r.inst) + "/run"
	default:
		path = "/run"
		if r.kind == kindTrace {
			path = "/run?trace=1"
		}
		body, _ = json.Marshal(service.RunRequest{Scenario: r.sc, Seed: r.seed}) // a plain struct cannot fail to encode
	}
	o.sent = time.Now()
	o.late = o.sent.Sub(due)
	st, b, err := g.s.do(c, http.MethodPost, path, body, r.id)
	o.done = time.Now()
	o.latency = o.done.Sub(due)
	o.status, o.err, o.bytes = st, err, len(b)
	if o.failed() {
		return
	}
	switch r.kind {
	case kindInstance:
		var rep service.InstanceRunReply
		if err := json.Unmarshal(b, &rep); err != nil {
			o.err = err
			return
		}
		g.mu.Lock()
		g.commits[r.inst]++
		want := g.commits[r.inst]
		st := rep.Instance
		g.lastSeen[r.inst] = &st
		g.mu.Unlock()
		if rep.Seq != want || uint64(rep.Seq) != r.seed {
			o.err = fmt.Errorf("instance %s: reply seq %d, generator committed %d", instanceName(r.inst), rep.Seq, want)
			return
		}
		o.result = &rep.Result
	case kindTrace:
		last := b
		if i := bytes.LastIndexByte(bytes.TrimRight(b, "\n"), '\n'); i >= 0 {
			last = b[i+1:]
		}
		var fin struct {
			Ev     string         `json:"ev"`
			Result service.Result `json:"result"`
		}
		if err := json.Unmarshal(last, &fin); err != nil || fin.Ev != "result" {
			o.err = fmt.Errorf("trace stream did not end with a result line: %v", err)
			return
		}
		o.result = &fin.Result
	default:
		var rep service.RunReply
		if err := json.Unmarshal(b, &rep); err != nil {
			o.err = err
			return
		}
		o.result = &rep.Result
	}
}

// rungStats summarizes one rung.
type rungStats struct {
	rate             float64
	p50, p99         float64 // ms from due time; failed requests count as +Inf
	p99ok            bool    // the rung holds enough requests to support p99
	growth           float64 // backlog growth over the rung, ms (see backlogGrowth)
	failed, n        int
	lateP50, lateP99 float64
}

// backlogGrowth is how much further behind the generator fell over a rung:
// the median lateness of the last quarter of its requests minus that of the
// first quarter, in ms.
func backlogGrowth(lateMs []float64) float64 {
	q := len(lateMs) / 4
	if q == 0 {
		return 0
	}
	first := append([]float64(nil), lateMs[:q]...)
	last := append([]float64(nil), lateMs[len(lateMs)-q:]...)
	return median(last) - median(first)
}

func summarizeRung(rate float64, out []outcome) rungStats {
	rs := rungStats{rate: rate, n: len(out)}
	lat := make([]float64, len(out))
	late := make([]float64, len(out))
	for i := range out {
		late[i] = float64(out[i].late.Nanoseconds()) / 1e6
		if out[i].failed() {
			rs.failed++
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = float64(out[i].latency.Nanoseconds()) / 1e6
	}
	rs.growth = backlogGrowth(late)
	rs.p50, _ = percentile(lat, 0.5)
	rs.p99, rs.p99ok = percentile(lat, 0.99)
	rs.lateP50, _ = percentile(late, 0.5)
	rs.lateP99, _ = percentile(late, 0.99)
	return rs
}

// load is the rung's distance to failing, as a share of the limits: the
// larger of p99 over the latency limit and backlog growth over a quarter of
// it. A rung passes when load is at most 1; an unsupported p99 or a failed
// request makes it +Inf.
func (rs rungStats) load(limitMs float64) float64 {
	if !rs.p99ok || math.IsInf(rs.p99, 1) {
		return math.Inf(1)
	}
	return math.Max(rs.p99/limitMs, rs.growth/(limitMs/4))
}

// maxRPS applies the staircase rule to rungs measured in ascending rate
// order: the highest rate whose p99 meets the limit without a growing
// backlog. It interpolates linearly on load between the last passing rung
// and the first failing one (from rate 0 at load 0 when the first rung
// fails), so the result does not jump by whole rungs; a failing rung with
// infinite load gives the last passing rate. If every rung passes it is
// the top rung.
func maxRPS(rungs []rungStats, limitMs float64) float64 {
	prevRate, prevLoad := 0.0, 0.0
	for _, rs := range rungs {
		l := rs.load(limitMs)
		if l <= 1 {
			prevRate, prevLoad = rs.rate, l
			continue
		}
		if math.IsInf(l, 1) {
			return prevRate
		}
		return prevRate + (rs.rate-prevRate)*(1-prevLoad)/(l-prevLoad)
	}
	return prevRate
}

// middleware times Server.ServeHTTP per request class and records a
// handler span under the client's request id.
type middleware struct {
	h  http.Handler
	tr *tracer

	mu    sync.Mutex
	spans map[int64]int // request id -> its service.handler span
}

func newMiddleware(h http.Handler, tr *tracer) *middleware {
	return &middleware{h: h, tr: tr, spans: map[int64]int{}}
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Id"), 10, 64)
	start := time.Now()
	m.h.ServeHTTP(w, r)
	end := time.Now()
	if id == 0 {
		return
	}
	i := m.tr.add("service.handler", id, -1, start, end)
	m.mu.Lock()
	m.spans[id] = i
	m.mu.Unlock()
}

func (m *middleware) handlerSpan(id int64) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.spans[id]
	return i, ok
}

// The serve workload's fixed open-loop rates, staircase and latency limit.
// loRate and hiRate sit near a third and two thirds of the median max_rps
// the staircase measured on the reference host (see METRICS.md); the
// staircase starts below the lowest max_rps observed there.
const (
	loRate     = 350.0
	hiRate     = 700.0
	p99LimitMs = 100.0
)

var staircase = []float64{300, 400, 500, 600, 700, 800, 900, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400}

// rungSeconds is the length of a fixed-rate rung; every rung also holds at
// least minRungRequests requests, so that its p99 is supported.
const (
	rungSeconds     = 2
	minRungRequests = 1000
)

func rungCount(rate float64) int {
	return max(minRungRequests, int(rate*rungSeconds))
}

// setupServe times reps server builds, each on emptied engine pools, in
// process CPU time and in wall time, then builds the server the run uses
// under liveAfter and returns it with the set-up times and its live heap.
func setupServe(cfg config, reps int, traced bool, tr *tracer) (s *server, cpu, wall []float64, live float64, err error) {
	for i := 0; i < reps; i++ {
		emptyPools()
		start, c0 := time.Now(), cpuTime()
		srv, err := startServer(cfg.dir, traced, tr)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(start).Seconds())
		if err := srv.stop(); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	live, err = liveAfter(func() error {
		var err error
		s, err = startServer(cfg.dir, traced, tr)
		return err
	})
	return s, cpu, wall, live, err
}

// checkReplies is the serve correctness gate: every successful reply must
// equal a direct pooled trial of the same scenario and seed. It returns the
// number of mismatches and the direct run time per request id.
func checkReplies(reqs []request, out []outcome) (int, map[int64]time.Duration, error) {
	direct := make(map[int64]time.Duration, len(reqs))
	bad := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	idx := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if out[i].result == nil {
					continue
				}
				start := time.Now()
				res, err := directRun(reqs[i].sc, reqs[i].seed)
				d := time.Since(start)
				mu.Lock()
				direct[reqs[i].id] = d
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil && !sameResult(*out[i].result, res) {
					bad++
					fmt.Fprintf(os.Stderr, "perfbench: request %d (%s %s seed %d) replied %+v, direct run gives %+v\n",
						reqs[i].id, kindNames[reqs[i].kind], reqs[i].sc.Algorithm, reqs[i].seed, *out[i].result, res)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return bad, direct, firstErr
}

// checkReplay restarts the service on s's journal and compares every
// instance's state with what the generator last committed. It returns the
// replay (service.New) time.
func checkReplay(s *server, g *generator) (time.Duration, error) {
	start := time.Now()
	svc, err := service.New(service.Config{JournalPath: s.journal})
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("restart on journal: %w", err)
	}
	err = sameInstances(svc, g)
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	return d, err
}

func sameInstances(svc *service.Server, g *generator) error {
	for i := range instanceScenarios {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/instances/"+instanceName(i), nil))
		var got service.InstanceState
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			return fmt.Errorf("instance %s after restart: %v", instanceName(i), err)
		}
		want := g.lastSeen[i]
		if want == nil {
			if got.Runs != 0 {
				return fmt.Errorf("instance %s after restart has %d runs, generator committed none", instanceName(i), got.Runs)
			}
			continue
		}
		gb, _ := json.Marshal(got) // plain structs cannot fail to encode
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			return fmt.Errorf("instance %s after restart is %s, generator committed %s", instanceName(i), gb, wb)
		}
	}
	return nil
}

// phase is a batch of requests and what became of them.
type phase struct {
	reqs []request
	out  []outcome
}

// runRung sends one fixed-rate rung and logs its latency against the limit.
func runRung(g *generator, cfg config, name string, rung int, rate float64,
	instOps *int, nextID *int64, rep *report) (phase, rungStats) {
	reqs := schedule(cfg.seed, rung, rate, rungCount(rate), instOps, *nextID)
	*nextID += int64(len(reqs))
	out := g.run(reqs, 0)
	rs := summarizeRung(rate, out)
	rep.logf("%s rung %.0f rps: %d requests, p50 %.2f ms, p99 %.2f ms (supported %t), lateness p50 %.2f ms p99 %.2f ms, backlog growth %.2f ms, load %.2f of the %.0f ms limit, failed %d",
		name, rate, rs.n, rs.p50, rs.p99, rs.p99ok, rs.lateP50, rs.lateP99, rs.growth, rs.load(p99LimitMs), p99LimitMs, rs.failed)
	return phase{reqs, out}, rs
}

// runStaircase runs the rungs in ascending order until one fails the limit
// and returns each rung's stats.
func runStaircase(g *generator, cfg config, instOps *int, nextID *int64,
	rep *report) ([]rungStats, phase) {
	var stats []rungStats
	var all phase
	for ri, rate := range staircase {
		ph, rs := runRung(g, cfg, "staircase", 200+ri, rate, instOps, nextID, rep)
		stats = append(stats, rs)
		all.reqs = append(all.reqs, ph.reqs...)
		all.out = append(all.out, ph.out...)
		if rs.load(p99LimitMs) > 1 {
			break
		}
	}
	return stats, all
}

// checkPhase applies the per-reply correctness gate to a batch and adds
// its counts to rep: every request must have succeeded and every reply must
// equal the direct run. It returns the direct run times.
func checkPhase(reqs []request, out []outcome, rep *report) (map[int64]time.Duration, error) {
	failed := 0
	for i := range out {
		if out[i].failed() {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s) failed: status %d: %v\n",
				reqs[i].id, kindNames[reqs[i].kind], out[i].status, out[i].err)
		}
	}
	bad, direct, err := checkReplies(reqs, out)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(reqs)
	rep.failed += failed + bad
	return direct, nil
}

// gateServe checks a finished phase, stops the server and verifies the
// restart on its journal, returning the direct run times and the replay
// time.
func gateServe(s *server, g *generator, reqs []request, out []outcome, rep *report) (map[int64]time.Duration, time.Duration, error) {
	direct, err := checkPhase(reqs, out, rep)
	if err != nil {
		return nil, 0, err
	}
	if err := s.stop(); err != nil {
		return nil, 0, err
	}
	replay, err := checkReplay(s, g)
	return direct, replay, err
}

// saturate keeps both connections busy with back-to-back requests for d
// of measured time, in chunks. The clock stops between chunks while the
// chunk's replies are checked and dropped, so memory does not grow with
// the server's speed. It returns the requests completed per wall second and
// per CPU second of the measured chunks, and the replies' digest.
func saturate(g *generator, cfg config, d time.Duration, rep *report) (rps, cpuRPS float64, n int, digest string, err error) {
	const chunk = 1000
	var instOps int
	var nextID int64 = 1
	var wall, cpu time.Duration
	h := fnv.New64a()
	for k := 0; wall < d; k++ {
		ops := instOps
		reqs := schedule(cfg.seed, 300+k, math.Inf(1), chunk, &ops, nextID)
		start, c0 := time.Now(), cpuTime()
		out := g.run(reqs, d-wall)
		wall += time.Since(start)
		cpu += cpuTime() - c0
		reqs = reqs[:len(out)]
		nextID += int64(len(reqs))
		for _, r := range reqs {
			if r.kind == kindInstance {
				instOps = r.op + 1
			}
		}
		if _, err := checkPhase(reqs, out, rep); err != nil {
			return 0, 0, 0, "", err
		}
		foldReplies(h, reqs, out)
		n += len(out)
	}
	return float64(n) / wall.Seconds(), float64(n) / cpu.Seconds(), n, fmt.Sprintf("%016x", h.Sum64()), nil
}

// runServeTimed is the untraced run: set up setupReps times, then keep both
// connections saturated for the measured time. Its throughput is the
// saturated request rate; latency at fixed rates is the traced run's.
func runServeTimed(cfg config, rep *report) error {
	s, setups, setupWalls, live, err := setupServe(cfg, setupReps, false, nil)
	if err != nil {
		return err
	}
	rep.set("live_mb", live, "MB")
	g := newGenerator(s)
	rps, cpuRPS, n, digest, err := saturate(g, cfg, cfg.seconds, rep)
	if err != nil {
		return err
	}
	if err := s.stop(); err != nil {
		return err
	}
	if _, err := checkReplay(s, g); err != nil {
		return err
	}
	rep.logf("saturated: %d requests in %s on two connections, %.1f requests/s, %.1f per CPU second, replies digest %s",
		n, cfg.seconds, rps, cpuRPS, digest)
	rep.logf("set-up: median %.4f CPU s, %.4f s wall, of %d", median(setups), median(setupWalls), setupReps)
	rep.set("setup_s", median(setups), "s")
	rep.set("throughput_per_cpu_s", cpuRPS, "1/s")
	return nil
}

// foldReplies writes every successful reply's result to h, in request
// order.
func foldReplies(h io.Writer, reqs []request, out []outcome) {
	for i := range out {
		if out[i].result == nil {
			continue
		}
		r := out[i].result
		fmt.Fprintf(h, "%d|%d|%d|%d|%t|%t|%t|%d|%d\n", reqs[i].id, reqs[i].seed,
			r.Windows, r.FirstDecision, r.AllDecided, r.Agreement, r.Validity, r.Decision, r.MaxChain)
	}
}

func replyDigest(reqs []request, out []outcome) string {
	h := fnv.New64a()
	foldReplies(h, reqs, out)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runServeTraced is the serve workload's traced run. The lo rung runs
// untraced on one server (the reference), then the lo rung, the hi rung and
// the staircase run on a fresh server behind the timing middleware. The two
// lo rungs send identical requests, so their reply digests and journal
// bytes must agree.
func runServeTraced(cfg config, rep *report) error {
	tr := newTracer()

	su, _, _, _, err := setupServe(cfg, 0, false, nil)
	if err != nil {
		return err
	}
	gu := newGenerator(su)
	var opsU int
	var idU int64 = 1
	j0u, err := journalSize(su.journal)
	if err != nil {
		return err
	}
	u, _ := runRung(gu, cfg, "untraced lo", 0, loRate, &opsU, &idU, rep)
	j1u, err := journalSize(su.journal)
	if err != nil {
		return err
	}
	if _, _, err := gateServe(su, gu, u.reqs, u.out, rep); err != nil {
		return err
	}

	st, _, _, _, err := setupServe(cfg, 0, true, tr)
	if err != nil {
		return err
	}
	ready0, err := st.readyz()
	if err != nil {
		return err
	}
	j0, err := journalSize(st.journal)
	if err != nil {
		return err
	}
	g := newGenerator(st)
	var ops int
	var id int64 = 1
	lo, loStats := runRung(g, cfg, "lo", 0, loRate, &ops, &id, rep)
	j1, err := journalSize(st.journal)
	if err != nil {
		return err
	}
	hi, hiStats := runRung(g, cfg, "hi", 1, hiRate, &ops, &id, rep)
	j2, err := journalSize(st.journal)
	if err != nil {
		return err
	}
	stairs, sp := runStaircase(g, cfg, &ops, &id, rep)
	ready1, err := st.readyz()
	if err != nil {
		return err
	}
	reqs := append(append(append([]request(nil), lo.reqs...), hi.reqs...), sp.reqs...)
	outs := append(append(append([]outcome(nil), lo.out...), hi.out...), sp.out...)
	direct, replay, err := gateServe(st, g, reqs, outs, rep)
	if err != nil {
		return err
	}

	du, dt := replyDigest(u.reqs, u.out), replyDigest(lo.reqs, lo.out)
	if du != dt || j1u-j0u != j1-j0 {
		return fmt.Errorf("serve: traced lo rung diverged from the untraced one: digest %s/%s, journal bytes %d/%d",
			dt, du, j1-j0, j1u-j0u)
	}
	rep.logf("lo rung: reply digest %s and journal bytes %d agree untraced and traced", du, j1-j0)

	for _, x := range []struct {
		name string
		rs   rungStats
	}{{"lo", loStats}, {"hi", hiStats}} {
		rep.set("service."+x.name+".p50_ms", x.rs.p50, "ms")
		v := x.rs.p99
		if !x.rs.p99ok || math.IsInf(v, 1) {
			v = 0
		}
		rep.set("service."+x.name+".p99_ms", v, "ms")
	}
	rep.set("service.max_rps", maxRPS(stairs, p99LimitMs), "1/s")

	// Handler-level numbers come from the lo and hi rungs.
	n := len(lo.reqs) + len(hi.reqs)
	handler := map[int][]float64{}
	var overhead, netMs, late []float64
	var traceBytes, traceN, instanceRuns int
	var kindN [numKinds]int
	var kindMs [numKinds]float64
	for i := 0; i < n; i++ {
		r, o := reqs[i], &outs[i]
		late = append(late, float64(o.late.Nanoseconds())/1e6)
		if o.failed() {
			continue
		}
		hs, ok := st.mw.handlerSpan(r.id)
		if !ok {
			return fmt.Errorf("serve: no handler span for request %d", r.id)
		}
		tr.setParent(hs, tr.add("client.request", r.id, -1, o.sent, o.done))
		hms := float64(tr.duration(hs).Nanoseconds()) / 1e6
		kindN[r.kind]++
		kindMs[r.kind] += hms
		netMs = append(netMs, float64(o.done.Sub(o.sent).Nanoseconds())/1e6-hms)
		switch r.kind {
		case kindRun, kindBracha:
			handler[kindRun] = append(handler[kindRun], hms)
			overhead = append(overhead, hms-float64(direct[r.id].Nanoseconds())/1e6)
		case kindInstance:
			handler[kindInstance] = append(handler[kindInstance], hms)
			instanceRuns++
		case kindTrace:
			handler[kindTrace] = append(handler[kindTrace], hms)
			traceBytes += o.bytes
			traceN++
		}
	}
	// The mix's weights are an assumption (METRICS.md); this line shows what
	// each request class costs the server under them.
	var totalMs float64
	for _, ms := range kindMs {
		totalMs += ms
	}
	for k := range kindNames {
		rep.logf("  class %-8s %5.1f%% of lo+hi requests, %5.1f%% of handler time, %.3f ms mean",
			kindNames[k], 100*ratio(float64(kindN[k]), float64(n)), 100*ratio(kindMs[k], totalMs), ratio(kindMs[k], float64(kindN[k])))
	}
	rep.layerPct("service.run.handler_ms", handler[kindRun], "ms", 0.5, 0.99)
	rep.layerPct("service.instance.handler_ms", handler[kindInstance], "ms", 0.5, 0.9)
	rep.layerPct("service.trace.handler_ms", handler[kindTrace], "ms", 0.5)
	rep.set("service.trace_bytes_per_req", ratio(float64(traceBytes), float64(traceN)), "bytes")
	rep.layerPct("service.overhead_ms", overhead, "ms", 0.5)
	rep.layerPct("service.net_ms", netMs, "ms", 0.5)
	rep.layerPct("service.gen_late_ms", late, "ms", 0.5, 0.99)
	conflicts := 0
	for i := range outs {
		if outs[i].status == http.StatusConflict {
			conflicts++
		}
	}
	rep.set("service.shed", float64(ready1.Shed-ready0.Shed), "count")
	rep.set("service.conflicts", float64(conflicts), "count")
	rep.set("service.journal_bytes_per_run", ratio(float64(j2-j0), float64(instanceRuns)), "bytes")
	rep.set("service.replay_ms", float64(replay.Nanoseconds())/1e6, "ms")
	rep.set("trace_overhead_frac", clientTime(lo.out)/clientTime(u.out)-1, "frac")

	// The engine layers under the served mix: the lo rung's stateless
	// requests replayed through the traced trial loop.
	ls := newLayerSamples()
	for i, r := range lo.reqs {
		if r.kind != kindRun && r.kind != kindBracha {
			continue
		}
		windows := 0
		if lo.out[i].result != nil {
			windows = lo.out[i].result.Windows
		}
		res, err := tracedTrial(ls, tr, r.id, r.sc.Algorithm, r.sc.Adversary, r.sc.Scheduler, r.sc.Input,
			r.sc.N, r.sc.T, r.seed, r.sc.MaxWindows, windows)
		if err != nil {
			return err
		}
		if lo.out[i].result != nil && !sameResult(*lo.out[i].result, res) {
			return fmt.Errorf("serve: traced trial loop disagrees with reply %d", r.id)
		}
	}
	ls.report(rep)
	return tr.write(cfg.spans)
}

func clientTime(out []outcome) float64 {
	var t float64
	for i := range out {
		t += out[i].done.Sub(out[i].sent).Seconds()
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
