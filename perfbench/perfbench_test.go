package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"asyncagree/internal/registry"
	"asyncagree/internal/service"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above
		{999, 0.99, 990, false}, // 9 above
		{21, 0.5, 11, true},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %t; want %v, %t", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	flat := make([]float64, 100)
	for i := range flat {
		flat[i] = 1
	}
	if g := backlogGrowth(flat); g != 0 {
		t.Errorf("steady lateness: growth %v, want 0", g)
	}
	rising := make([]float64, 100)
	for i := range rising {
		rising[i] = float64(i) // 1 ms further behind per request
	}
	if g := backlogGrowth(rising); g != 75 {
		t.Errorf("rising lateness: growth %v, want 75", g)
	}
}

func TestMaxRPS(t *testing.T) {
	const limit = 100
	rung := func(rate, p99, growth float64) rungStats {
		return rungStats{rate: rate, p99: p99, p99ok: true, growth: growth}
	}
	for _, c := range []struct {
		name  string
		rungs []rungStats
		want  float64
	}{
		{"all pass", []rungStats{rung(100, 10, 0), rung(200, 20, 0)}, 200},
		// p99 crosses the limit between 200 (load 0.5) and 300 (load 1.5).
		{"p99 crossing", []rungStats{rung(100, 10, 0), rung(200, 50, 0), rung(300, 150, 0), rung(400, 10, 0)}, 250},
		// The backlog grows by half a limit (load 2) at 300 with a low p99.
		{"backlog", []rungStats{rung(200, 50, 0), rung(300, 20, 50)}, 200 + 100*0.5/1.5},
		{"first rung fails", []rungStats{rung(100, 200, 0)}, 50},
		{"failed requests", []rungStats{rung(100, 10, 0), rung(200, math.Inf(1), 0)}, 100},
		{"unsupported p99", []rungStats{rung(100, 10, 0), {rate: 200, p99: 10}}, 100},
	} {
		if got := maxRPS(c.rungs, limit); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: maxRPS = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestScheduleIsSeededAndDue(t *testing.T) {
	var opsA, opsB int
	a := schedule(7, 0, 250, 400, &opsA, 1)
	b := schedule(7, 0, 250, 400, &opsB, 1)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("request %d differs between identical schedules", i)
		}
		if want := time.Duration(i) * 4 * time.Millisecond; a[i].due != want {
			t.Fatalf("request %d due at %v, want %v", i, a[i].due, want)
		}
	}
	if opsA == 0 {
		t.Fatal("no instance operations in 400 requests")
	}
	// Instance operations continue their per-instance sequence across rungs.
	next := schedule(7, 1, 250, 400, &opsA, 401)
	seen := map[int]uint64{}
	for _, r := range append(a, next...) {
		if r.kind != kindInstance {
			continue
		}
		if r.inst != r.op%len(instanceScenarios) || r.seed != seen[r.inst]+1 {
			t.Fatalf("instance op %d: instance %d seq %d after %d", r.op, r.inst, r.seed, seen[r.inst])
		}
		seen[r.inst] = r.seed
	}
	other := schedule(8, 0, 250, 400, new(int), 1)
	same := 0
	for i := range a {
		if a[i].kind == other[i].kind && a[i].seed == other[i].seed {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("a different seed produced the same requests")
	}
}

// TestGeneratorTimesFromDueTime sends a rung whose first request stalls the
// only busy connection; the requests queued behind it must be charged from
// their due times and report lateness, and none may be sent early.
func TestGeneratorTimesFromDueTime(t *testing.T) {
	stall := 60 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		if r.Header.Get("X-Bench-Id") == "1" || r.Header.Get("X-Bench-Id") == "2" {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(service.RunReply{Scenario: req.Scenario, Seed: req.Seed})
	}))
	defer ts.Close()
	s := &server{url: ts.URL}
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	}
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = request{id: int64(i + 1), due: time.Duration(i) * time.Millisecond, kind: kindRun, sc: runScenarios[0]}
	}
	start := time.Now()
	out := newGenerator(s).run(reqs, 0)
	for i, o := range out {
		if o.failed() {
			t.Fatalf("request %d failed: %d %v", i, o.status, o.err)
		}
		if o.sent.Before(start.Add(reqs[i].due)) {
			t.Errorf("request %d sent %v before it was due", i, start.Add(reqs[i].due).Sub(o.sent))
		}
		if o.latency < o.done.Sub(o.sent) {
			t.Errorf("request %d: latency %v is less than its client time %v", i, o.latency, o.done.Sub(o.sent))
		}
	}
	// Both connections are held by the stalled requests, so request 3 (due
	// at 2 ms) waits for one of them.
	if out[2].late < stall/2 {
		t.Errorf("request queued behind the stall reports lateness %v, want at least %v", out[2].late, stall/2)
	}
}

// recordSink keeps what it consumes.
type recordSink struct{ recs []registry.TrialRecord }

func (s *recordSink) Consume(r registry.TrialRecord) error { s.recs = append(s.recs, r); return nil }
func (s *recordSink) Flush() error                         { return nil }

func TestTimedSinkPassesRecordsThrough(t *testing.T) {
	m := registry.Matrix{Algorithms: []string{"core"}, Adversaries: []string{"full", "storm"},
		Schedulers: []string{"adversary"}, Sizes: []registry.Size{{N: 12, T: 1}},
		Inputs: []string{"split"}, Seeds: []uint64{1, 2}}
	var plain, timed bytes.Buffer
	direct, inner := &recordSink{}, &recordSink{}
	ts := &timedSink{inner: inner}
	if _, err := m.RunWith(registry.RunOptions{Serial: true, Sinks: []registry.ResultSink{
		direct, registry.NewJSONLSink(&plain), ts, &timedSink{inner: registry.NewJSONLSink(&timed)}}}); err != nil {
		t.Fatal(err)
	}
	if len(inner.recs) != 4 || len(ts.consume) != 4 {
		t.Fatalf("timed sink passed %d records and timed %d, want 4", len(inner.recs), len(ts.consume))
	}
	for i := range direct.recs {
		if direct.recs[i] != inner.recs[i] {
			t.Errorf("record %d changed through the timed sink", i)
		}
	}
	if !bytes.Equal(plain.Bytes(), timed.Bytes()) {
		t.Error("JSONL through the timed sink differs from the plain export")
	}
}

// TestTimedPlanKeepsWindowPath checks that the plan wrapper keeps the
// columnar path where the raw plan takes it (and the message path where it
// does not), and that wrapped trials reproduce unwrapped ones exactly.
func TestTimedPlanKeepsWindowPath(t *testing.T) {
	for _, c := range []struct {
		alg, adv string
		n, t     int
		columnar bool
	}{
		{"core", "splitvote", 24, 3, true},
		{"benor", "full", 24, 3, true},
		{"bracha", "full", 13, 4, false},
	} {
		inputs, _ := registry.Inputs("split", c.n, 5)
		p := registry.Params{N: c.n, T: c.t, Inputs: inputs, Seed: 5}
		raw, err := registry.AcquireTrial(c.alg, c.adv, "adversary", p)
		if err != nil {
			t.Fatal(err)
		}
		plan := newTimedPlan(raw.Plan())
		if got, want := raw.System().ColumnarPlanned(plan), raw.System().ColumnarPlanned(raw.Plan()); got != want || got != c.columnar {
			t.Errorf("%s/%s: columnar through wrapper %t, raw %t, want %t", c.alg, c.adv, got, want, c.columnar)
		}
		want, err := raw.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		// Hold the first engine so the second is a distinct instance.
		ls := newLayerSamples()
		got, err := tracedTrial(ls, nil, 1, c.alg, c.adv, "adversary", "split", c.n, c.t, 5, 200, want.Windows)
		raw.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s/%s: traced trial %+v, plain run %+v", c.alg, c.adv, got, want)
		}
		if share := float64(ls.columnar) / float64(ls.windows); (share == 1) != c.columnar {
			t.Errorf("%s/%s: traced columnar share %v", c.alg, c.adv, share)
		}
	}
}

// TestTracedWindowLoopDoesNotAllocate checks that sim.allocs_per_window
// counts only the program: the columnar window loop allocates nothing in
// steady state, so a warmed core/splitvote trial must read 0. The program
// still allocates now and then (in about one such trial in 300, even with
// the collector paused and on one P), so the test takes the fewest
// allocations over several trials, each with fresh sample slices: anything
// the benchmark itself allocated inside the count would show in every one.
func TestTracedWindowLoopDoesNotAllocate(t *testing.T) {
	inputs, _ := registry.Inputs("split", 24, 5)
	want, err := registry.RunPooledTrial("core", "splitvote", "adversary",
		registry.Params{N: 24, T: 3, Inputs: inputs, Seed: 5}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		ls := newLayerSamples()
		if _, err := tracedTrial(ls, nil, 1, "core", "splitvote", "adversary", "split", 24, 3, 5, 2000, want.Windows); err != nil {
			t.Fatal(err)
		}
		if ls.windows != int64(want.Windows) {
			t.Fatalf("traced trial ran %d windows, want %d", ls.windows, want.Windows)
		}
		fewest = min(fewest, ls.windowAllocs)
	}
	if fewest != 0 {
		t.Errorf("every traced trial counted allocations in the window loop (fewest %d), want 0", fewest)
	}
}

// TestWideBudgetRule checks the wide workload's budget rule and weights: a
// trial may run to its budget or decide first, but not stop undecided, and
// every cell is weighted by its budget.
func TestWideBudgetRule(t *testing.T) {
	w := sweepWorkloads["wide"]
	for _, p := range w.rounds(1, 0) {
		budget := p.m.MaxWindows
		rec := registry.TrialRecord{Algorithm: "benor", Adversary: "full", N: p.m.Sizes[0].N, T: p.m.Sizes[0].T}
		if got := w.weights[w.group(rec)]; got != float64(budget) {
			t.Errorf("%s: weight %v, want the budget %d", w.group(rec), got, budget)
		}
		for _, c := range []struct {
			windows int
			decided bool
			ok      bool
		}{{budget, false, true}, {budget / 4, true, true}, {budget / 4, false, false}} {
			rec.Windows, rec.AllDecided = c.windows, c.decided
			if err := w.check(p, rec); (err == nil) != c.ok {
				t.Errorf("%s: %d windows, decided %t: check error %v", p.name, c.windows, c.decided, err)
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the names and units the command
// prints in step with BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workload {
		if _, ok := sweepWorkloads[w.Name]; !ok && w.Name != "serve" {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// TestReferenceDigests replays round 0 of the stall and wide workloads at
// the reference seed and compares the record digests with reference.json,
// so a change that alters any trial's outcome shows up as a count change
// before anyone compares timings.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two sweep rounds")
	}
	b, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Seed      uint64
		Workloads map[string]struct {
			Rounds []struct {
				Round, Trials, Windows int
				RecordBytes            int64 `json:"record_bytes"`
				Digest                 string
			}
		}
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stall", "wide"} {
		want := ref.Workloads[name].Rounds[0]
		rr, err := runRound(sweepWorkloads[name], ref.Seed, 0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if rr.failed != 0 || rr.trials != want.Trials || rr.windows != int64(want.Windows) ||
			rr.bytes != want.RecordBytes || rr.digest != want.Digest {
			t.Errorf("%s round 0: %d trials (%d failed), %d windows, %d record bytes, digest %s; reference %+v",
				name, rr.trials, rr.failed, rr.windows, rr.bytes, rr.digest, want)
		}
	}
}
