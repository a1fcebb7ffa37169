// Command sweep runs the full algorithm × adversary × scheduler × size ×
// input × seed scenario matrix through the shared registry and prints one
// aggregated table row per cell. Incompatible pairings (e.g. reset
// adversaries against non-reset-tolerant algorithms, lossy delivery
// schedulers against the committee algorithm) and invalid sizes (e.g. the
// core algorithm at t >= n/6) are skipped automatically, so the default
// invocation runs the complete compatible cross-product in one command.
//
// All trials are independently seeded and fanned across a deterministic
// worker pool: the table is byte-identical run-to-run and identical to a
// serial sweep (-serial). Timing goes to stderr so stdout stays
// deterministic.
//
// Results stream: per-cell aggregates are reduced online and -out streams
// one record per trial (JSONL, or CSV when the path ends in .csv), so
// memory stays O(cells) however many seeds run. With -out a checkpoint file
// (default <out>.ckpt, override with -checkpoint, "off" disables) records
// every completed trial; an interrupted sweep — Ctrl-C flushes cleanly and
// prints this hint — rerun with -resume skips the completed prefix and
// produces output byte-identical to an uninterrupted run.
//
// Execution is hardened (DESIGN.md, "Failure model of the harness"): a
// panicking trial becomes a fault record instead of a crash, a cell is
// quarantined after repeated consecutive faults, -deadline converts runaway
// trials into recorded non-termination outcomes, and sink/checkpoint writes
// are retried with deterministic backoff (-retry), degrading to a reported
// drop rather than an abort. The -inject-* flags drive the deterministic
// fault-injection harness (internal/faultinject) that chaos-tests all of
// this. A sweep that completes but saw faults, quarantines, or dropped
// sinks prints its table and exits non-zero.
//
// Usage:
//
//	sweep                                   # full compatible cross-product, default grid
//	sweep -algs core,benor -advs splitvote  # restrict axes
//	sweep -scheds adversary                 # the pre-scheduler trials (table adds a scheduler column)
//	sweep -sizes 12:1,24:3 -trials 5        # custom shapes, seeds 1..5
//	sweep -out results.jsonl -progress      # stream per-trial records, report progress
//	sweep -out results.jsonl -resume        # continue an interrupted sweep
//	sweep -deadline 30s                     # watchdog: record trials exceeding 30s as non-terminating
//	sweep -inject-panics rand:3@7           # chaos: panic 3 seeded-random trials
//	sweep -list                             # print the registered inventory
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"asyncagree/internal/ckptio"
	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
	"asyncagree/internal/retry"
)

func main() {
	stop := installInterrupt()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// installInterrupt converts the first SIGINT or SIGTERM into a clean-stop
// request (the sweep flushes sinks and the checkpoint, then exits with a
// resume hint); a second signal falls back to the default abrupt exit.
// SIGTERM gets the same treatment as Ctrl-C because container runtimes and
// batch schedulers terminate with it — losing the resume invocation to an
// orchestrated shutdown would defeat the checkpoint contract.
func installInterrupt() func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopped.Store(true)
		signal.Stop(ch)
	}()
	return stopped.Load
}

func run(args []string, out io.Writer, interrupted func() bool) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		algs       = fs.String("algs", "", "comma-separated algorithms (empty = all registered)")
		advs       = fs.String("advs", "", "comma-separated adversaries (empty = all registered)")
		scheds     = fs.String("scheds", "", "comma-separated delivery schedulers (empty = all registered)")
		sizes      = fs.String("sizes", "", "comma-separated n:t shapes, e.g. 12:1,24:3 (empty = default grid)")
		inputs     = fs.String("inputs", "", "comma-separated input patterns (empty = default grid)")
		trials     = fs.Int("trials", 0, "trials per cell, seeded 1..trials (0 = default grid)")
		maxWindows = fs.Int("max-windows", 0, "per-trial window budget (0 = default)")
		serial     = fs.Bool("serial", false, "run trials on a serial loop instead of the worker pool")
		verbose    = fs.Bool("v", false, "also print skipped sizes and incompatible-pair counts")
		list       = fs.Bool("list", false, "print the registered algorithms, adversaries, schedulers, and input patterns")
		outPath    = fs.String("out", "", "stream per-trial records here (.csv = CSV, anything else = JSONL)")
		ckptPath   = fs.String("checkpoint", "", "checkpoint file for -resume (default <out>.ckpt when -out is set; \"off\" disables)")
		resume     = fs.Bool("resume", false, "skip trials already recorded in the checkpoint and continue the sweep")
		progress   = fs.Bool("progress", false, "report trial progress to stderr")
		stopAfter  = fs.Int("interrupt-after", 0, "stop cleanly after N completed trials, as if interrupted (testing hook for -resume)")

		deadline  = fs.Duration("deadline", 0, "per-trial wall-clock budget; exceeding it records the trial as non-terminating (0 = off)")
		quarAfter = fs.Int("quarantine-after", 0, "quarantine a cell after N consecutive faulted trials (0 = default 3, negative = never)")
		retryN    = fs.Int("retry", 3, "attempts per sink/checkpoint write before the sink is dropped")
		retryBase = fs.Duration("retry-backoff", 5*time.Millisecond, "base of the deterministic exponential retry backoff")

		injPanics  = fs.String("inject-panics", "", "fault injection: trials to panic (\"3,7,9-12\" or \"rand:K@seed\")")
		injStalls  = fs.String("inject-stalls", "", "fault injection: trials to stall past the watchdog (same syntax)")
		injStallAt = fs.Int("inject-stall-window", 0, "window at which injected stalls fire (0 = default)")
		injOut     = fs.String("inject-out-failures", "", "fault injection: -out write-failure schedule (\"N\", \"NxK\", \"N+\", comma-composed)")
		injCkpt    = fs.String("inject-ckpt-failures", "", "fault injection: checkpoint write-failure schedule (same syntax)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		registry.WriteInventory(out)
		return nil
	}

	m := registry.Matrix{
		Algorithms:  splitList(*algs),
		Adversaries: splitList(*advs),
		Schedulers:  splitList(*scheds),
		Inputs:      splitList(*inputs),
		MaxWindows:  *maxWindows,
	}
	var err error
	if m.Sizes, err = parseSizes(*sizes); err != nil {
		return err
	}
	if *trials < 0 {
		return fmt.Errorf("trials must be >= 0, got %d", *trials)
	}
	if *maxWindows < 0 {
		return fmt.Errorf("max-windows must be >= 0, got %d", *maxWindows)
	}
	if *stopAfter < 0 {
		return fmt.Errorf("interrupt-after must be >= 0, got %d", *stopAfter)
	}
	if *deadline < 0 {
		return fmt.Errorf("deadline must be >= 0, got %s", *deadline)
	}
	if *retryN < 1 {
		return fmt.Errorf("retry must be >= 1 attempt, got %d", *retryN)
	}
	if *retryBase < 0 {
		return fmt.Errorf("retry-backoff must be >= 0, got %s", *retryBase)
	}
	if *injStallAt < 0 {
		return fmt.Errorf("inject-stall-window must be >= 0, got %d", *injStallAt)
	}
	inject := &faultinject.Plan{StallWindow: *injStallAt}
	if inject.Panic, err = faultinject.ParseTrialSet(*injPanics); err != nil {
		return err
	}
	if inject.Stall, err = faultinject.ParseTrialSet(*injStalls); err != nil {
		return err
	}
	outFailures, err := faultinject.ParseWriteFailures(*injOut)
	if err != nil {
		return err
	}
	ckptFailures, err := faultinject.ParseWriteFailures(*injCkpt)
	if err != nil {
		return err
	}
	retryPolicy := retry.Policy{Attempts: *retryN, Base: *retryBase, Max: 16 * *retryBase}
	for seed := uint64(1); seed <= uint64(*trials); seed++ {
		m.Seeds = append(m.Seeds, seed)
	}

	ckpt := *ckptPath
	switch {
	case ckpt == "off":
		ckpt = ""
	case ckpt == "" && *outPath != "":
		ckpt = *outPath + ".ckpt"
	}
	if *resume && ckpt == "" {
		return errors.New("-resume needs a checkpoint: set -out or -checkpoint")
	}

	grid := m.GridSignature()
	var prefix []registry.TrialRecord
	if *resume {
		var salvage *registry.SalvageReport
		if prefix, salvage, err = registry.LoadCheckpointSalvage(ckpt, grid); err != nil {
			return err
		}
		if !salvage.Empty() {
			fmt.Fprintf(os.Stderr, "sweep: %s: %s\n", ckpt, salvage)
		}
		if *progress && len(prefix) > 0 {
			fmt.Fprintf(os.Stderr, "sweep: resuming past %d checkpointed trials\n", len(prefix))
		}
	}

	opts := registry.RunOptions{
		Resume:          prefix,
		Serial:          *serial,
		TrialDeadline:   *deadline,
		QuarantineAfter: *quarAfter,
	}
	if !inject.Empty() {
		opts.Inject = inject
	}
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	if *outPath != "" {
		sink, f, err := openOutSink(*outPath, prefix, retryPolicy, outFailures)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		opts.Sinks = append(opts.Sinks, registry.NamedSink{Name: *outPath, ResultSink: sink})
	}
	if ckpt != "" {
		sink, f, err := openCheckpointSink(ckpt, grid, prefix, retryPolicy, ckptFailures)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		opts.Sinks = append(opts.Sinks, registry.NamedSink{Name: ckpt, ResultSink: sink})
	}

	var emitted atomic.Int64
	stopRequested := func() bool {
		if interrupted != nil && interrupted() {
			return true
		}
		return *stopAfter > 0 && emitted.Load() >= int64(*stopAfter)
	}
	opts.Stop = stopRequested
	lastReport := time.Now()
	opts.Progress = func(done, total int) {
		emitted.Store(int64(done))
		if *progress && (done == total || time.Since(lastReport) >= 500*time.Millisecond) {
			lastReport = time.Now()
			fmt.Fprintf(os.Stderr, "sweep: %d/%d trials (%.1f%%)\n",
				done, total, 100*float64(done)/float64(total))
		}
	}

	start := time.Now()
	sweep, err := m.RunWith(opts)
	if errors.Is(err, registry.ErrInterrupted) {
		// Echo the invocation with -resume added and -interrupt-after
		// stripped — re-running the hint verbatim must make progress, not
		// re-interrupt itself after the replayed prefix.
		var resumeArgs []string
		for i := 0; i < len(args); i++ {
			if args[i] == "-interrupt-after" || args[i] == "--interrupt-after" {
				i++ // skip the value too
				continue
			}
			if strings.HasPrefix(args[i], "-interrupt-after=") || strings.HasPrefix(args[i], "--interrupt-after=") {
				continue
			}
			resumeArgs = append(resumeArgs, args[i])
		}
		if !*resume {
			resumeArgs = append(resumeArgs, "-resume")
		}
		fmt.Fprintf(os.Stderr, "sweep: interrupted after %d trials; partial results are checkpointed — resume with: sweep %s\n",
			emitted.Load(), strings.Join(resumeArgs, " "))
		return err
	}
	if err != nil {
		return err
	}

	fmt.Fprint(out, sweep.Table().String())
	fmt.Fprintf(out, "\ncells %d   trials %d   incompatible-pairs %d   skipped-sizes %d\n",
		len(sweep.Cells), sweep.TrialCount, sweep.Incompatible, len(sweep.Skipped))
	if *verbose {
		for _, s := range sweep.Skipped {
			fmt.Fprintf(out, "  skipped: %s\n", s)
		}
	}
	// Degradation report: only unhealthy sweeps print it (clean output stays
	// byte-identical to the pre-hardening format) and they exit non-zero
	// below, after the table and aggregates have been delivered in full.
	if !sweep.Healthy() {
		fmt.Fprintf(out, "faulted-trials %d   quarantined-cells %d   dropped-sinks %d\n",
			sweep.Faulted, len(sweep.Quarantined), len(sweep.SinkFailures))
		for _, q := range sweep.Quarantined {
			fmt.Fprintf(out, "  quarantined: %s\n", q)
		}
		for _, s := range sweep.SinkFailures {
			fmt.Fprintf(out, "  sink dropped: %s\n", s)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d trials in %.2fs\n", sweep.TrialCount, time.Since(start).Seconds())

	if v := sweep.SafetyViolations(); v > 0 {
		return fmt.Errorf("%d agreement/validity violations in safety-certain algorithms (this is a bug, not an expected outcome)", v)
	}
	if !sweep.Healthy() {
		return fmt.Errorf("sweep completed with %d faulted trials, %d quarantined cells, %d dropped sinks",
			sweep.Faulted, len(sweep.Quarantined), len(sweep.SinkFailures))
	}
	return nil
}

// openOutSink prepares the per-trial record export: the file is rewritten
// from the resumed prefix (healing any torn tail of the interrupted run)
// and the returned sink appends the remaining live trials, so the finished
// file is byte-identical to an uninterrupted run's. Streaming appends run
// through the retry/fault-injection stack; the atomic prefix rewrite does
// not (it already fails safe: temp file + rename).
func openOutSink(path string, prefix []registry.TrialRecord, pol retry.Policy, failures *faultinject.WriteFailures) (registry.ResultSink, *os.File, error) {
	csv := strings.EqualFold(filepath.Ext(path), ".csv")
	f, err := ckptio.RewriteThenAppend(path, func(w io.Writer) error {
		var sink registry.ResultSink
		if csv {
			sink = registry.NewCSVSink(w)
		} else {
			sink = registry.NewJSONLSink(w)
		}
		for _, rec := range prefix {
			if err := sink.Consume(rec); err != nil {
				return err
			}
		}
		return sink.Flush()
	})
	if err != nil {
		return nil, nil, err
	}
	w := ckptio.HardenWriter(f, pol, failures)
	if csv {
		s := registry.NewCSVSink(w)
		if len(prefix) > 0 {
			s.SkipHeader()
		}
		return s, f, nil
	}
	return registry.NewJSONLSink(w), f, nil
}

// openCheckpointSink prepares the checkpoint: header plus the verified
// resumed prefix are rewritten, and the returned sink appends every further
// completed trial as it is emitted — through the same retry/fault-injection
// stack as the record export.
func openCheckpointSink(path, grid string, prefix []registry.TrialRecord, pol retry.Policy, failures *faultinject.WriteFailures) (registry.ResultSink, *os.File, error) {
	f, err := ckptio.RewriteThenAppend(path, func(w io.Writer) error {
		if err := registry.WriteCheckpointHeader(w, grid); err != nil {
			return err
		}
		sink := registry.NewJSONLSink(w)
		for _, rec := range prefix {
			if err := sink.Consume(rec); err != nil {
				return err
			}
		}
		return sink.Flush()
	})
	if err != nil {
		return nil, nil, err
	}
	return registry.NewJSONLSink(ckptio.HardenWriter(f, pol, failures)), f, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSizes(s string) ([]registry.Size, error) {
	var sizes []registry.Size
	for _, part := range splitList(s) {
		nt := strings.SplitN(part, ":", 2)
		if len(nt) != 2 {
			return nil, fmt.Errorf("bad size %q (want n:t, e.g. 24:3)", part)
		}
		n, err := strconv.Atoi(nt[0])
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		t, err := strconv.Atoi(nt[1])
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", part, err)
		}
		sizes = append(sizes, registry.Size{N: n, T: t})
	}
	return sizes, nil
}
