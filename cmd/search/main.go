// Command search runs the adversary-optimization driver: instead of
// replaying the paper's fixed lower-bound construction, it searches the
// (adversary knobs × delivery scheduler) space for the configuration that
// stalls an algorithm longest at each system size. A coarse grid over every
// compatible pairing and knob extreme is refined around the frontier, then
// a seeded evolutionary stage mutates the best candidates; every evaluation
// is a batch of seeded registry trials scored by mean windows-to-first-
// decision (censored at -max-windows).
//
// The search is deterministic end to end: the same flags and -seed produce
// byte-identical output, serial (-serial) or parallel. With -out the
// per-evaluation records stream as JSONL and a checkpoint file (default
// <out>.ckpt, -checkpoint overrides, "off" disables) records every
// completed evaluation; an interrupted search — Ctrl-C flushes cleanly and
// prints this hint — rerun with -resume replays the checkpointed prefix
// without re-running a trial and finishes with output byte-identical to an
// uninterrupted run.
//
// Faulted evaluations (panics, injected stalls) become records instead of
// crashes and never enter the frontier; sink writes retry with
// deterministic backoff (-retry) and degrade to a reported drop. The
// -inject-* flags drive the same deterministic fault-injection harness as
// cmd/sweep. A search that completes but saw faults or dropped sinks
// prints its frontier and exits non-zero.
//
// Usage:
//
//	search                                  # default: core algorithm at 12:1 and 16:2
//	search -alg benor -sizes 8:1            # other algorithms and shapes
//	search -advs random,splitvote           # restrict the candidate space
//	search -budget 500 -trials 5            # cap total trials, deepen per-candidate sampling
//	search -out frontier.jsonl -progress    # stream evaluation records, report progress
//	search -out frontier.jsonl -resume      # continue an interrupted search
//	search -list                            # print the registered inventory (with knobs)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"asyncagree/internal/ckptio"
	"asyncagree/internal/faultinject"
	"asyncagree/internal/registry"
	"asyncagree/internal/retry"
	"asyncagree/internal/search"
)

func main() {
	stop := installInterrupt()
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "search:", err)
		os.Exit(1)
	}
}

// installInterrupt converts the first SIGINT or SIGTERM into a clean-stop
// request (the search flushes sinks and the checkpoint, then exits with a
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
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	var (
		alg        = fs.String("alg", "", "algorithm under attack (empty = core)")
		advs       = fs.String("advs", "", "comma-separated adversaries to search over (empty = all registered)")
		scheds     = fs.String("scheds", "", "comma-separated delivery schedulers to search over (empty = all registered)")
		sizes      = fs.String("sizes", "", "comma-separated n:t shapes, e.g. 12:1,24:3 (empty = default 12:1,16:2)")
		input      = fs.String("input", "", "input pattern evaluations run on (empty = split)")
		trials     = fs.Int("trials", 0, "seeded trials per candidate evaluation (0 = default 3)")
		maxWindows = fs.Int("max-windows", 0, "per-trial window budget; stalls censor at it (0 = default 2000)")
		budget     = fs.Int("budget", 0, "total trial budget across the whole search (0 = schedule-bounded)")
		seed       = fs.Uint64("seed", 0, "evolutionary-stage mutation seed (0 = default 1)")
		topk       = fs.Int("topk", 0, "per-size frontier width (0 = default 5)")
		refine     = fs.Int("refine", 0, "grid refinement rounds (0 = default 2, negative = none)")
		gens       = fs.Int("gens", 0, "evolutionary generations (0 = default 3, negative = none)")
		pop        = fs.Int("pop", 0, "candidates per generation (0 = default 8)")
		serial     = fs.Bool("serial", false, "evaluate candidates on a serial loop instead of the worker pool")
		verbose    = fs.Bool("v", false, "also print skipped sizes")
		list       = fs.Bool("list", false, "print the registered algorithms, adversaries (with knobs), schedulers, and input patterns")
		outPath    = fs.String("out", "", "stream per-evaluation JSONL records here")
		ckptPath   = fs.String("checkpoint", "", "checkpoint file for -resume (default <out>.ckpt when -out is set; \"off\" disables)")
		resume     = fs.Bool("resume", false, "replay evaluations already recorded in the checkpoint and continue the search")
		progress   = fs.Bool("progress", false, "report evaluation progress to stderr")
		stopAfter  = fs.Int("interrupt-after", 0, "stop cleanly after N emitted evaluations, as if interrupted (testing hook for -resume)")

		retryN    = fs.Int("retry", 3, "attempts per sink/checkpoint write before the sink is dropped")
		retryBase = fs.Duration("retry-backoff", 5*time.Millisecond, "base of the deterministic exponential retry backoff")

		injPanics  = fs.String("inject-panics", "", "fault injection: evaluations to panic (\"3,7,9-12\" or \"rand:K@seed\")")
		injStalls  = fs.String("inject-stalls", "", "fault injection: evaluations to stall (same syntax)")
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

	if *trials < 0 {
		return fmt.Errorf("trials must be >= 0, got %d", *trials)
	}
	if *maxWindows < 0 {
		return fmt.Errorf("max-windows must be >= 0, got %d", *maxWindows)
	}
	if *budget < 0 {
		return fmt.Errorf("budget must be >= 0, got %d", *budget)
	}
	if *topk < 0 {
		return fmt.Errorf("topk must be >= 0, got %d", *topk)
	}
	if *pop < 0 {
		return fmt.Errorf("pop must be >= 0, got %d", *pop)
	}
	if *stopAfter < 0 {
		return fmt.Errorf("interrupt-after must be >= 0, got %d", *stopAfter)
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
	o := search.Options{
		Algorithm:          *alg,
		Input:              *input,
		Adversaries:        splitList(*advs),
		Schedulers:         splitList(*scheds),
		TrialsPerCandidate: *trials,
		MaxWindows:         *maxWindows,
		Budget:             *budget,
		Seed:               *seed,
		TopK:               *topk,
		Refinements:        *refine,
		Generations:        *gens,
		Population:         *pop,
	}
	var err error
	if o.Sizes, err = parseSizes(*sizes); err != nil {
		return err
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

	sig := o.Signature()
	var prefix []search.EvalRecord
	if *resume {
		var salvage *registry.SalvageReport
		if prefix, salvage, err = search.LoadCheckpoint(ckpt, sig); err != nil {
			return err
		}
		if !salvage.Empty() {
			fmt.Fprintf(os.Stderr, "search: %s: %s\n", ckpt, salvage)
		}
		if *progress && len(prefix) > 0 {
			fmt.Fprintf(os.Stderr, "search: resuming past %d checkpointed evaluations\n", len(prefix))
		}
	}

	ro := search.RunOptions{Resume: prefix, Serial: *serial}
	if !inject.Empty() {
		ro.Inject = inject
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
		ro.Sinks = append(ro.Sinks, search.NamedSink{Name: *outPath, Sink: sink})
	}
	if ckpt != "" {
		sink, f, err := openCheckpointSink(ckpt, sig, prefix, retryPolicy, ckptFailures)
		if err != nil {
			return err
		}
		closers = append(closers, f)
		ro.Sinks = append(ro.Sinks, search.NamedSink{Name: ckpt, Sink: sink})
	}

	var emitted atomic.Int64
	ro.Stop = func() bool {
		if interrupted != nil && interrupted() {
			return true
		}
		return *stopAfter > 0 && emitted.Load() >= int64(*stopAfter)
	}
	lastReport := time.Now()
	ro.Progress = func(evals, trialsSpent int) {
		emitted.Store(int64(evals))
		if *progress && time.Since(lastReport) >= 500*time.Millisecond {
			lastReport = time.Now()
			fmt.Fprintf(os.Stderr, "search: %d evaluations, %d trials\n", evals, trialsSpent)
		}
	}

	start := time.Now()
	rep, err := search.Run(o, ro)
	if errors.Is(err, search.ErrInterrupted) {
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
		fmt.Fprintf(os.Stderr, "search: interrupted after %d evaluations; partial results are checkpointed — resume with: search %s\n",
			emitted.Load(), strings.Join(resumeArgs, " "))
		return err
	}
	if err != nil {
		return err
	}

	fmt.Fprint(out, rep.Table().String())
	fmt.Fprintf(out, "\nevaluations %d   trials %d   skipped-sizes %d\n",
		rep.Evals, rep.TrialsSpent, len(rep.Skipped))
	if rep.BudgetExhausted {
		fmt.Fprintf(out, "trial budget %d exhausted: later stages were truncated\n", o.Budget)
	}
	if *verbose {
		for _, s := range rep.Skipped {
			fmt.Fprintf(out, "  skipped: %s\n", s)
		}
	}
	// Degradation report: only unhealthy searches print it, and they exit
	// non-zero below, after the frontier has been delivered in full.
	if !rep.Healthy() {
		fmt.Fprintf(out, "faulted-evaluations %d   dropped-sinks %d\n",
			rep.Faulted, len(rep.SinkFailures))
		for _, s := range rep.SinkFailures {
			fmt.Fprintf(out, "  sink dropped: %s\n", s)
		}
	}
	fmt.Fprintf(os.Stderr, "search: %d evaluations (%d trials) in %.2fs\n",
		rep.Evals, rep.TrialsSpent, time.Since(start).Seconds())

	if !rep.Healthy() {
		return fmt.Errorf("search completed with %d faulted evaluations, %d dropped sinks",
			rep.Faulted, len(rep.SinkFailures))
	}
	return nil
}

// openOutSink prepares the per-evaluation record export: the file is
// rewritten from the resumed prefix (healing any torn tail of the
// interrupted run) and the returned sink appends the remaining live
// evaluations, so the finished file is byte-identical to an uninterrupted
// run's. Streaming appends run through the retry/fault-injection stack; the
// atomic prefix rewrite does not (it already fails safe: temp file +
// rename).
func openOutSink(path string, prefix []search.EvalRecord, pol retry.Policy, failures *faultinject.WriteFailures) (search.Sink, *os.File, error) {
	f, err := ckptio.RewriteThenAppend(path, func(w io.Writer) error {
		sink := search.NewJSONLSink(w)
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
	return search.NewJSONLSink(ckptio.HardenWriter(f, pol, failures)), f, nil
}

// openCheckpointSink prepares the checkpoint: header plus the verified
// resumed prefix are rewritten, and the returned sink appends every further
// completed evaluation as it is emitted — through the same
// retry/fault-injection stack as the record export.
func openCheckpointSink(path, sig string, prefix []search.EvalRecord, pol retry.Policy, failures *faultinject.WriteFailures) (search.Sink, *os.File, error) {
	f, err := ckptio.RewriteThenAppend(path, func(w io.Writer) error {
		if err := registry.WriteCheckpointHeader(w, sig); err != nil {
			return err
		}
		sink := search.NewJSONLSink(w)
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
	return search.NewJSONLSink(ckptio.HardenWriter(f, pol, failures)), f, nil
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
