package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"asyncagree/internal/ckptio"
	"asyncagree/internal/registry"
	"asyncagree/internal/retry"
	"asyncagree/internal/sim"
)

// The three sweep workloads run registry.Matrix sweeps on the serial
// pipeline (RunOptions.Serial, the same record stream cmd/sweep -serial
// writes). Serial sweeps keep each trial's time attributable to one core and
// keep a heavy-tailed trial from idling a second worker, which is what makes
// windows_per_s steady on a small shared host.
//
// A run is a sequence of rounds. Round r runs the workload's parts, each a
// Matrix over seeds derived from (--seed, r); the work of a round is a pure
// function of the seed, so its record digest is reproducible and the traced
// run can replay exactly the rounds the timed run starts with.

// part is one Matrix of a round plus the rule every record it emits obeys.
type part struct {
	name  string
	m     registry.Matrix
	files bool // stream into a JSONL file and a checkpoint, as cmd/sweep -out does
}

type sweepWorkload struct {
	name string
	// rounds builds round r's parts under the benchmark seed.
	rounds func(seed uint64, r int) []part
	// check validates one clean record of a part against the workload's
	// contract (window budget reached or not).
	check func(p part, rec registry.TrialRecord) error
	// group names the rate group of a trial, and weights gives each group's
	// fixed reference window count (nil: the windows actually run). See
	// weightedRate.
	group   func(rec registry.TrialRecord) string
	weights map[string]float64
	// trialsPerPart is the trial count every part must expand to (0: any).
	trialsPerPart int
	traceRounds   int
}

// stallCells are the stalling adversaries at mid n (Theorem 5's e^{αn}
// stall). The budget is far beyond any observed stall, so every trial
// decides and total windows are a pure function of the seeds.
var stallCells = []struct {
	alg, adv string
	size     registry.Size
}{
	{"core", "splitvote", registry.Size{N: 60, T: 9}},
	{"core", "random", registry.Size{N: 48, T: 7}},
	{"benor", "splitvote", registry.Size{N: 48, T: 11}},
}

const (
	stallBudget       = 1 << 22
	stallSeedsPerCell = 2
	wideBudget1024    = 200
	wideBudget4096    = 12
)

var sweepWorkloads = map[string]*sweepWorkload{
	"stall": {
		name: "stall",
		rounds: func(seed uint64, r int) []part {
			parts := make([]part, len(stallCells))
			for i, c := range stallCells {
				seeds := make([]uint64, stallSeedsPerCell)
				for j := range seeds {
					seeds[j] = deriveSeed(seed, 1, (r*len(stallCells)+i)*stallSeedsPerCell+j)
				}
				parts[i] = part{
					name: fmt.Sprintf("%s/%s %s", c.alg, c.adv, c.size),
					m: registry.Matrix{Algorithms: []string{c.alg}, Adversaries: []string{c.adv},
						Schedulers: []string{"adversary"}, Sizes: []registry.Size{c.size},
						Inputs: []string{"split"}, Seeds: seeds, MaxWindows: stallBudget},
				}
			}
			return parts
		},
		check: func(p part, rec registry.TrialRecord) error {
			if !rec.AllDecided || rec.Windows >= p.m.MaxWindows {
				return fmt.Errorf("%s: trial %s did not decide within %d windows", p.name, rec.Key(), p.m.MaxWindows)
			}
			return nil
		},
		// Equal windows per cell: stall lengths are heavy-tailed, so the
		// per-cell window mix of a run is noise, not signal.
		group:         cellGroup,
		weights:       map[string]float64{"core/splitvote 60:9": 1, "core/random 48:7": 1, "benor/splitvote 48:11": 1},
		trialsPerPart: stallSeedsPerCell,
		traceRounds:   4,
	},
	"wide": {
		name: "wide",
		rounds: func(seed uint64, r int) []part {
			var parts []part
			for i, sz := range wideSizes {
				parts = append(parts, part{
					name: sz.size.String(),
					m: registry.Matrix{Algorithms: wideAlgorithms, Adversaries: wideAdversaries,
						Schedulers: []string{"adversary"}, Sizes: []registry.Size{sz.size},
						Inputs: []string{"split"}, Seeds: []uint64{deriveSeed(seed, 2, 2*r+i)},
						MaxWindows: sz.budget},
				})
			}
			return parts
		},
		// Nearly every trial runs to its budget. Now and then a benor/full
		// trial decides first, which is a correct outcome (safety is
		// checked before this rule); stopping undecided short of the budget
		// is not.
		check: func(p part, rec registry.TrialRecord) error {
			if rec.Windows != p.m.MaxWindows && !rec.AllDecided {
				return fmt.Errorf("%s: trial %s stopped undecided at %d windows, short of the budget %d",
					p.name, rec.Key(), rec.Windows, p.m.MaxWindows)
			}
			return nil
		},
		// Each cell is weighted by its budget, so a trial that decides
		// early does not move the window mix.
		group:   cellGroup,
		weights: wideWeights(),
		// benor is not reset-tolerant, so the matrix skips benor/storm.
		trialsPerPart: 5,
		traceRounds:   1,
	},
	"grid": {
		name: "grid",
		rounds: func(seed uint64, r int) []part {
			m := registry.DefaultMatrix()
			m.Seeds = []uint64{deriveSeed(seed, 3, r)}
			return []part{{name: "default", m: m, files: true}}
		},
		check: func(part, registry.TrialRecord) error { return nil },
		// Per algorithm, at one round's typical window counts: how long
		// paxos and core trials run moves with the seed, and their
		// windows cost very different amounts.
		group: func(rec registry.TrialRecord) string { return rec.Algorithm },
		weights: map[string]float64{"paxos": 380000, "bracha": 120000, "core": 40000,
			"benor": 330, "committee": 84},
		traceRounds: 1,
	},
}

// The wide workload's cells: every algorithm under every adversary (the
// matrix skips the incompatible ones) at each size, run to its budget.
var (
	wideAlgorithms  = []string{"core", "benor"}
	wideAdversaries = []string{"full", "splitvote", "storm"}
	wideSizes       = []struct {
		size   registry.Size
		budget int
	}{{registry.Size{N: 1024, T: 127}, wideBudget1024}, {registry.Size{N: 4096, T: 511}, wideBudget4096}}
)

// wideWeights gives every wide cell its window budget as its weight.
func wideWeights() map[string]float64 {
	w := map[string]float64{}
	for _, sz := range wideSizes {
		for _, alg := range wideAlgorithms {
			for _, adv := range wideAdversaries {
				w[fmt.Sprintf("%s/%s %s", alg, adv, sz.size)] = float64(sz.budget)
			}
		}
	}
	return w
}

func cellGroup(rec registry.TrialRecord) string {
	return fmt.Sprintf("%s/%s %d:%d", rec.Algorithm, rec.Adversary, rec.N, rec.T)
}

// digestSink hashes the JSONL encoding of every record — the exact bytes a
// JSONLSink export holds — and keeps the records for the correctness gate
// and for replay by the traced trial loop.
type digestSink struct {
	h     hash.Hash
	n     countingWriter
	jsonl *registry.JSONLSink
	recs  []registry.TrialRecord
}

type countingWriter struct {
	w     io.Writer
	bytes int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.bytes += int64(n)
	return n, err
}

func newDigestSink() *digestSink {
	d := &digestSink{h: sha256.New()}
	d.n.w = d.h
	d.jsonl = registry.NewJSONLSink(&d.n)
	return d
}

func (d *digestSink) Consume(rec registry.TrialRecord) error {
	d.recs = append(d.recs, rec)
	return d.jsonl.Consume(rec)
}

func (d *digestSink) Flush() error { return d.jsonl.Flush() }

func (d *digestSink) digest() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// partRun is the outcome of one part.
type partRun struct {
	wall, cpu time.Duration // RunWith and closing the files, before the checks
	// trialWall and trialCPU are each trial's share of the part: the wall
	// and process CPU time from the previous record's emission to its own.
	trialWall, trialCPU []time.Duration
	windows             int64
	trials              int
	failed              int
	digest              string
	bytes               int64
	recs                []registry.TrialRecord
}

// runPart executes one part through Matrix.RunWith and applies the
// correctness gate. extra sinks are the traced run's hook. Each trial is
// timed through RunOptions.Progress, which a serial sweep calls once per
// emitted record.
func runPart(w *sweepWorkload, p part, dir string, extra []registry.ResultSink) (partRun, error) {
	d := newDigestSink()
	var pr partRun
	start, startCPU := time.Now(), cpuTime()
	last, lastCPU := start, startCPU
	opts := registry.RunOptions{Serial: true, Sinks: []registry.ResultSink{d}, Progress: func(int, int) {
		now, cpu := time.Now(), cpuTime()
		pr.trialWall = append(pr.trialWall, now.Sub(last))
		pr.trialCPU = append(pr.trialCPU, cpu-lastCPU)
		last, lastCPU = now, cpu
	}}
	var outPath, ckptPath string
	closeFiles := func() error { return nil }
	if p.files {
		outPath = filepath.Join(dir, "grid.jsonl")
		ckptPath = outPath + ".ckpt"
		sinks, files, err := openFileSinks(outPath, ckptPath, p.m.GridSignature())
		if err != nil {
			return partRun{}, err
		}
		// Error paths close here; the success path closes, checked, below.
		defer func() {
			for _, f := range files {
				f.Close()
			}
		}()
		opts.Sinks = append(opts.Sinks, sinks...)
		closeFiles = func() error {
			for _, f := range files {
				if err := f.Close(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	opts.Sinks = append(opts.Sinks, extra...)
	sw, err := p.m.RunWith(opts)
	if err == nil {
		err = closeFiles()
	}
	pr.wall, pr.cpu = time.Since(start), cpuTime()-startCPU
	if err != nil {
		return partRun{}, fmt.Errorf("%s %s: %w", w.name, p.name, err)
	}
	pr.trials, pr.digest, pr.bytes, pr.recs = sw.TrialCount, d.digest(), d.n.bytes, d.recs
	if want := w.trialsPerPart; want > 0 && sw.TrialCount != want {
		return pr, fmt.Errorf("%s %s: expanded to %d trials, want %d (%d incompatible, skipped %v)",
			w.name, p.name, sw.TrialCount, want, sw.Incompatible, sw.Skipped)
	}
	if len(sw.SinkFailures) > 0 {
		return pr, fmt.Errorf("%s %s: sinks failed: %v", w.name, p.name, sw.SinkFailures)
	}
	for _, rec := range d.recs {
		pr.windows += int64(rec.Windows)
		if err := checkRecord(w, p, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			pr.failed++
		}
	}
	if p.files {
		if err := checkFiles(outPath, ckptPath, p.m.GridSignature(), pr); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// checkRecord is the per-trial correctness gate: no fault, no agreement or
// validity violation for an algorithm whose safety is certain, and the
// workload's own budget contract.
func checkRecord(w *sweepWorkload, p part, rec registry.TrialRecord) error {
	if rec.Faulted() {
		return fmt.Errorf("%s: trial %s faulted: %s: %s", w.name, rec.Key(), rec.FaultKind, firstLine(rec.Fault))
	}
	alg, err := registry.LookupAlgorithm(rec.Algorithm)
	if err != nil {
		return err
	}
	if alg.SafetyCertain && (!rec.Agreement || !rec.Validity) {
		return fmt.Errorf("%s: trial %s violated safety (agreement %t, validity %t)",
			w.name, rec.Key(), rec.Agreement, rec.Validity)
	}
	return w.check(p, rec)
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// openFileSinks opens the record export and the checkpoint the way
// cmd/sweep -out does for a fresh run: each file is written through
// ckptio.RewriteThenAppend (the checkpoint with its grid header) and
// streamed through the hardened retrying writer.
func openFileSinks(outPath, ckptPath, grid string) ([]registry.ResultSink, []*os.File, error) {
	out, err := ckptio.RewriteThenAppend(outPath, func(io.Writer) error { return nil })
	if err != nil {
		return nil, nil, err
	}
	ckpt, err := ckptio.RewriteThenAppend(ckptPath, func(w io.Writer) error {
		return registry.WriteCheckpointHeader(w, grid)
	})
	if err != nil {
		out.Close()
		return nil, nil, err
	}
	pol := retry.Policy{}
	return []registry.ResultSink{
			registry.NamedSink{Name: outPath, ResultSink: registry.NewJSONLSink(ckptio.HardenWriter(out, pol, nil))},
			registry.NamedSink{Name: ckptPath, ResultSink: registry.NewJSONLSink(ckptio.HardenWriter(ckpt, pol, nil))},
		},
		[]*os.File{out, ckpt}, nil
}

// checkFiles verifies the streamed files: the export holds exactly the
// digested bytes, and the checkpoint loads back to every record.
func checkFiles(outPath, ckptPath, grid string, pr partRun) error {
	b, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:8]); got != pr.digest || int64(len(b)) != pr.bytes {
		return fmt.Errorf("grid export %s: digest %s (%d bytes), records digest %s (%d bytes)",
			outPath, got, len(b), pr.digest, pr.bytes)
	}
	recs, err := registry.LoadCheckpoint(ckptPath, grid)
	if err != nil {
		return err
	}
	if len(recs) != pr.trials {
		return fmt.Errorf("grid checkpoint %s: %d records, want %d", ckptPath, len(recs), pr.trials)
	}
	return nil
}

// setupSweep builds and warms every engine the workload's parts use, from
// empty engine pools, so every repetition pays the full build. It returns
// the process CPU time and the wall time the set-up took.
func setupSweep(w *sweepWorkload, seed uint64) (cpu, wall time.Duration, err error) {
	emptyPools()
	start, c0 := time.Now(), cpuTime()
	err = warmSweep(w, seed)
	return cpuTime() - c0, time.Since(start), err
}

// warmSweep runs each part's Matrix for two windows per trial on round 0's
// seeds.
func warmSweep(w *sweepWorkload, seed uint64) error {
	for _, p := range w.rounds(seed, 0) {
		m := p.m
		m.MaxWindows = 2
		if _, err := m.RunWith(registry.RunOptions{Serial: true}); err != nil {
			return fmt.Errorf("%s setup %s: %w", w.name, p.name, err)
		}
	}
	return nil
}

// roundResult aggregates one round.
type roundResult struct {
	wall    time.Duration
	windows int64
	trials  int
	failed  int
	digest  string
	bytes   int64
	parts   []partRun
}

func runRound(w *sweepWorkload, seed uint64, r int, dir string) (roundResult, error) {
	var rr roundResult
	h := sha256.New()
	for _, p := range w.rounds(seed, r) {
		pr, err := runPart(w, p, dir, nil)
		if err != nil {
			return rr, err
		}
		rr.parts = append(rr.parts, pr)
		rr.wall += pr.wall
		rr.windows += pr.windows
		rr.trials += pr.trials
		rr.failed += pr.failed
		rr.bytes += pr.bytes
		h.Write([]byte(pr.digest))
	}
	rr.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return rr, nil
}

// rateGroup accumulates one rate group's windows and time.
type rateGroup struct {
	windows   int64
	wall, cpu time.Duration
}

// weightedRate is windows per CPU second at a fixed window mix: each
// group's own rate, weighted by its reference window count, so that how
// long seed-dependent trials happen to run does not move the figure. With
// nil weights it is total windows over total CPU time.
func weightedRate(groups map[string]*rateGroup, weights map[string]float64) float64 {
	var work, secs float64
	for name, g := range groups {
		w := float64(g.windows)
		if weights != nil {
			w = weights[name]
		}
		work += w
		secs += w * g.cpu.Seconds() / float64(g.windows)
	}
	return work / secs
}

// runSweepTimed is the untraced run: set up setupReps times, then run
// rounds while the next one is expected to finish inside the measured time
// (at least one).
func runSweepTimed(w *sweepWorkload, cfg config, rep *report) error {
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		cpu, wall, err := setupSweep(w, cfg.seed)
		if err != nil {
			return err
		}
		setups = append(setups, cpu.Seconds())
		setupWalls = append(setupWalls, wall.Seconds())
	}
	live, err := liveAfter(func() error { return warmSweep(w, cfg.seed) })
	if err != nil {
		return err
	}
	rep.set("live_mb", live, "MB")
	groups := map[string]*rateGroup{}
	var elapsed time.Duration
	for r := 0; ; r++ {
		rr, err := runRound(w, cfg.seed, r, cfg.dir)
		if err != nil {
			return err
		}
		for _, pr := range rr.parts {
			for i, rec := range pr.recs {
				name := w.group(rec)
				g := groups[name]
				if g == nil {
					if _, ok := w.weights[name]; w.weights != nil && !ok {
						return fmt.Errorf("%s: no reference weight for rate group %q", w.name, name)
					}
					g = &rateGroup{}
					groups[name] = g
				}
				g.windows += int64(rec.Windows)
				g.wall += pr.trialWall[i]
				g.cpu += pr.trialCPU[i]
			}
		}
		rep.attempted += rr.trials
		rep.failed += rr.failed
		elapsed += rr.wall
		rep.logf("round %d: %d trials, %d windows in %.3fs, records %d bytes, digest %s",
			r, rr.trials, rr.windows, rr.wall.Seconds(), rr.bytes, rr.digest)
		if elapsed+elapsed/time.Duration(r+1) > cfg.seconds {
			break
		}
	}
	for name, g := range groups {
		rep.logf("  %-24s %9d windows in %.3fs (%.3f CPU s), %.0f windows/s", name, g.windows,
			g.wall.Seconds(), g.cpu.Seconds(), float64(g.windows)/g.wall.Seconds())
	}
	rep.logf("set-up: median %.4f CPU s, %.4f s wall, of %d", median(setups), median(setupWalls), setupReps)
	rep.set("setup_s", median(setups), "s")
	rep.set("throughput_per_cpu_s", weightedRate(groups, w.weights), "1/s")
	return nil
}

// layerSamples accumulates the traced trial loop's per-layer numbers.
type layerSamples struct {
	planUs, windowUs, execUs []float64
	acquireUs, releaseUs     []float64
	planTotal, windowTotal   time.Duration
	windows, columnar        int64
	trials                   int
	engines                  map[*registry.TrialEngine]bool
	windowAllocs, trialAlloc uint64
	msgs                     float64 // n² per window, summed
	mem                      runtime.MemStats
}

func newLayerSamples() *layerSamples {
	return &layerSamples{engines: map[*registry.TrialEngine]bool{}}
}

// heapAllocs reads the cumulative count of heap allocations, exactly:
// ReadMemStats stops the world and flushes every P's allocation counts,
// while the runtime/metrics counter only advances when a cached span is
// refilled. Reading into ls.mem keeps the read itself out of the count.
func (ls *layerSamples) heapAllocs() uint64 {
	runtime.ReadMemStats(&ls.mem)
	return ls.mem.Mallocs
}

// tracedTrial runs one trial the way RunWindowsUntil does — acquire, apply
// windows until every processor decided or the budget is spent, release —
// with the timed plan wrapper in the adversary's place. It also checks, on
// every window, that the wrapper keeps the engine on the same path as its
// raw plan. windows is the trial's expected window count: the per-window
// sample slices are grown to hold it, with the wrapper built, between the
// allocation counts, so that sim.allocs_per_window and
// registry.allocs_per_trial count the program's allocations only.
func tracedTrial(ls *layerSamples, tr *tracer, id int64, alg, adv, schedName, input string,
	n, t int, seed uint64, budget, windows int) (sim.RunResult, error) {
	inputs, err := registry.Inputs(input, n, seed)
	if err != nil {
		return sim.RunResult{}, err
	}
	p := registry.Params{N: n, T: t, Inputs: inputs, Seed: seed}
	a0 := ls.heapAllocs()
	t0 := time.Now()
	e, err := registry.AcquireTrial(alg, adv, schedName, p)
	t1 := time.Now()
	if err != nil {
		return sim.RunResult{}, err
	}
	aAcq := ls.heapAllocs()
	ls.engines[e] = true
	sys := e.System()
	plan := newTimedPlan(e.Plan())
	ls.planUs = slices.Grow(ls.planUs, windows)
	ls.windowUs = slices.Grow(ls.windowUs, windows)
	ls.execUs = slices.Grow(ls.execUs, windows)
	a1 := ls.heapAllocs()
	w0 := time.Now()
	var runErr error
	for sys.Windows() < budget && !sys.AllDecided() {
		col := sys.ColumnarPlanned(plan)
		if col != sys.ColumnarPlanned(e.Plan()) {
			return sim.RunResult{}, fmt.Errorf("plan wrapper changed the window path of %s/%s/%s %d:%d",
				alg, adv, schedName, n, t)
		}
		plan.last = 0
		ws := time.Now()
		runErr = sys.ApplyWindowWith(plan)
		wd := time.Since(ws)
		ls.windows++
		if col {
			ls.columnar++
		}
		ls.msgs += float64(n) * float64(n)
		ls.planUs = append(ls.planUs, float64(plan.last.Nanoseconds())/1e3)
		ls.windowUs = append(ls.windowUs, float64(wd.Nanoseconds())/1e3)
		ls.execUs = append(ls.execUs, float64((wd-plan.last).Nanoseconds())/1e3)
		ls.planTotal += plan.last
		ls.windowTotal += wd
		if runErr != nil {
			break
		}
	}
	w1 := time.Now()
	a2 := ls.heapAllocs()
	res := sys.Result()
	if runErr == nil {
		runErr = sys.Violation()
	}
	t2 := time.Now()
	e.Release()
	t3 := time.Now()
	a3 := ls.heapAllocs()
	ls.windowAllocs += a2 - a1
	ls.trialAlloc += (aAcq - a0) + (a3 - a2)
	ls.trials++
	ls.acquireUs = append(ls.acquireUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	ls.releaseUs = append(ls.releaseUs, float64(t3.Sub(t2).Nanoseconds())/1e3)
	if tr != nil {
		root := tr.add("trial", id, -1, t0, t3)
		tr.add("registry.acquire", id, root, t0, t1)
		tr.add("sim.windows", id, root, w0, w1)
		tr.add("registry.release", id, root, t2, t3)
	}
	return res, runErr
}

// pooledTrialCPU reruns rec's trial through registry.RunPooledTrial, as
// RunWith does, checks that it ends as recorded, and returns the process
// CPU time it took.
func pooledTrialCPU(rec registry.TrialRecord, budget int) (time.Duration, error) {
	inputs, err := registry.Inputs(rec.Input, rec.N, rec.Seed)
	if err != nil {
		return 0, err
	}
	p := registry.Params{N: rec.N, T: rec.T, Inputs: inputs, Seed: rec.Seed}
	start := cpuTime()
	res, err := registry.RunPooledTrial(rec.Algorithm, rec.Adversary, rec.Scheduler, p, budget)
	d := cpuTime() - start
	if err == nil && recordFrom(rec, res) != rec {
		err = fmt.Errorf("trial %s rerun ended at %d windows, recorded %d", rec.Key(), res.Windows, rec.Windows)
	}
	return d, err
}

// recordFrom rebuilds the TrialRecord RunWith would emit for a replayed
// trial, so the traced loop's records digest like the sweep's.
func recordFrom(rec registry.TrialRecord, res sim.RunResult) registry.TrialRecord {
	out := rec
	out.Windows, out.FirstDecision = res.Windows, res.FirstDecision
	out.AllDecided, out.Agreement, out.Validity = res.AllDecided, res.Agreement, res.Validity
	out.Decision, out.MaxChain = int(res.Decision), res.MaxChainDepth
	out.FaultKind, out.Fault = "", ""
	return out
}

// runSweepTraced is the traced run. It replays the timed run's first
// traceRounds rounds four times:
//
//	U  untraced, exactly as the timed run does (the reference);
//	T1 the traced trial loop over U's trials (adversary, sim and registry
//	   layers), whose records must digest like U's;
//	T0 U's trials alone through RunPooledTrial, each of which must end as
//	   recorded (the trial work inside the sweep layer);
//	T2 Matrix.RunWith with timed sinks and Progress (the sweep layer).
//
// Every exact count — trials, windows, record bytes, digests — must agree
// across U, T1 and T2, or the run fails.
func runSweepTraced(w *sweepWorkload, cfg config, rep *report) error {
	if _, _, err := setupSweep(w, cfg.seed); err != nil {
		return err
	}
	tr := newTracer()
	type pass struct {
		wall    time.Duration
		windows int64
		trials  int
		bytes   int64
		digests []string
	}
	var u, t1, t2 pass
	var uParts [][]partRun
	for r := 0; r < w.traceRounds; r++ {
		rr, err := runRound(w, cfg.seed, r, cfg.dir)
		if err != nil {
			return err
		}
		rep.attempted += rr.trials
		rep.failed += rr.failed
		rep.logf("round %d: %d trials, %d windows in %.3fs, records %d bytes, digest %s",
			r, rr.trials, rr.windows, rr.wall.Seconds(), rr.bytes, rr.digest)
		u.wall += rr.wall
		u.windows += rr.windows
		u.trials += rr.trials
		u.bytes += rr.bytes
		uParts = append(uParts, rr.parts)
		for _, pr := range rr.parts {
			u.digests = append(u.digests, pr.digest)
		}
	}

	ls := newLayerSamples()
	var id int64
	for r := 0; r < w.traceRounds; r++ {
		parts := w.rounds(cfg.seed, r)
		for pi, pr := range uParts[r] {
			d := newDigestSink()
			start := time.Now()
			for _, rec := range pr.recs {
				id++
				res, err := tracedTrial(ls, tr, id, rec.Algorithm, rec.Adversary, rec.Scheduler,
					rec.Input, rec.N, rec.T, rec.Seed, parts[pi].m.MaxWindows, rec.Windows)
				if err != nil {
					return fmt.Errorf("%s traced trial %s: %w", w.name, rec.Key(), err)
				}
				if err := d.Consume(recordFrom(rec, res)); err != nil {
					return err
				}
				t1.windows += int64(res.Windows)
			}
			t1.wall += time.Since(start)
			if err := d.Flush(); err != nil {
				return err
			}
			t1.trials += len(pr.recs)
			t1.bytes += d.n.bytes
			t1.digests = append(t1.digests, d.digest())
		}
	}

	// T2 runs part by part, each right after T0 has rerun the part's trials
	// alone through RunPooledTrial (the call RunWith makes per trial) with
	// no per-window instrumentation. Both are timed in process CPU time, so
	// the sweep layer's overhead is T2's CPU time beyond T0's, measured
	// under the same host conditions.
	var consume []float64
	var gaps []float64
	var trialCPU, sweepCPU time.Duration
	for r := 0; r < w.traceRounds; r++ {
		for pi, p := range w.rounds(cfg.seed, r) {
			for _, rec := range uParts[r][pi].recs {
				d, err := pooledTrialCPU(rec, p.m.MaxWindows)
				if err != nil {
					return err
				}
				trialCPU += d
			}
			ts := &timedSink{inner: registry.NewJSONLSink(io.Discard)}
			start := time.Now()
			pr, err := runPart(w, p, cfg.dir, []registry.ResultSink{ts})
			end := time.Now()
			if err != nil {
				return err
			}
			for _, g := range pr.trialWall {
				gaps = append(gaps, float64(g.Nanoseconds())/1e6)
			}
			tr.add("registry.sweep", int64(r), -1, start, end)
			t2.wall += pr.wall
			sweepCPU += pr.cpu
			t2.windows += pr.windows
			t2.trials += pr.trials
			t2.bytes += pr.bytes
			t2.digests = append(t2.digests, pr.digest)
			consume = append(consume, ts.consume...)
		}
	}

	for name, p := range map[string]pass{"traced trial loop": t1, "traced sweep": t2} {
		if p.trials != u.trials || p.windows != u.windows || p.bytes != u.bytes ||
			fmt.Sprint(p.digests) != fmt.Sprint(u.digests) {
			return fmt.Errorf("%s: %s diverged from the untraced run: trials %d/%d windows %d/%d bytes %d/%d digests %v/%v",
				w.name, name, p.trials, u.trials, p.windows, u.windows, p.bytes, u.bytes, p.digests, u.digests)
		}
	}
	rep.logf("traced rounds %d: %d trials, %d windows, record bytes %d, digests %v (untraced, traced loop and traced sweep agree)",
		w.traceRounds, u.trials, u.windows, u.bytes, u.digests)

	ls.report(rep)
	rep.layerPct("registry.sink_consume_us", consume, "us", 0.5, 0.9)
	rep.set("registry.sink_bytes", float64(u.bytes), "bytes")
	rep.layerPct("registry.emit_gap_ms", gaps, "ms", 0.9)
	rep.logf("sweep layer: trials alone %.3f CPU s (T0), RunWith %.3f CPU s (T2); wall: untraced sweep %.3fs (U), traced trial loop %.3fs (T1)",
		trialCPU.Seconds(), sweepCPU.Seconds(), u.wall.Seconds(), t1.wall.Seconds())
	rep.set("registry.sweep_overhead_frac", 1-trialCPU.Seconds()/sweepCPU.Seconds(), "frac")
	rep.set("trace_overhead_frac", t1.wall.Seconds()/u.wall.Seconds()-1, "frac")
	return tr.write(cfg.spans)
}

// report adds the trial-loop layers to rep.
func (ls *layerSamples) report(rep *report) {
	rep.layerPct("adversary.plan_us", ls.planUs, "us", 0.5, 0.99)
	rep.set("adversary.plan_share", ls.planTotal.Seconds()/ls.windowTotal.Seconds(), "frac")
	rep.layerPct("sim.window_us", ls.windowUs, "us", 0.5, 0.99)
	rep.layerPct("sim.exec_us", ls.execUs, "us", 0.5, 0.99)
	rep.set("sim.ns_per_msg", float64((ls.windowTotal-ls.planTotal).Nanoseconds())/ls.msgs, "ns")
	rep.set("sim.windows", float64(ls.windows), "count")
	rep.set("sim.columnar_share", float64(ls.columnar)/float64(ls.windows), "frac")
	rep.set("sim.allocs_per_window", float64(ls.windowAllocs)/float64(ls.windows), "count")
	rep.layerPct("registry.acquire_us", ls.acquireUs, "us", 0.5, 0.9)
	rep.layerPct("registry.release_us", ls.releaseUs, "us", 0.5)
	rep.set("registry.engines_built", float64(len(ls.engines)), "count")
	rep.set("registry.trials", float64(ls.trials), "count")
	rep.set("registry.allocs_per_trial", float64(ls.trialAlloc)/float64(ls.trials), "count")
}
