// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time and prints every metric by name with its
// unit, after checking that every output is correct:
//
//	go run . --workload stall --seed 1 --seconds 15 --trace 0
//
// Workloads: stall, wide and grid run registry.Matrix sweeps; serve drives
// an in-process agreed server over loopback. With --trace 0 the last line
// holds the end-to-end metrics of the untraced run; with --trace 1 it holds
// the per-layer metrics of a separate traced run. Any correctness failure
// exits 1 without a result line. METRICS.md maps every metric to what it
// measures; run.sh builds and runs the command from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// config holds the command line.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory for sweep exports and journals, removed at exit
	spans    string // where a traced run writes its spans
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the run's counts, metrics and human-readable log lines.
type report struct {
	log       io.Writer
	attempted int
	failed    int
	metrics   map[string]metric
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// layerPct reports base.pNN for each quantile q, applying the percentile
// rule: a percentile the sample cannot support (fewer than minBeyond samples
// above it) reads 0, and the log line gives the sample count either way.
func (r *report) layerPct(base string, xs []float64, unit string, qs ...float64) {
	for _, q := range qs {
		name := fmt.Sprintf("%s.p%d", base, int(q*100+0.5))
		v, ok := percentile(xs, q)
		if !ok {
			r.logf("  %-34s n/a (n=%d)", name, len(xs))
			v = 0
		} else {
			r.logf("  %-34s %.4g %s (n=%d)", name, v, unit, len(xs))
		}
		r.set(name, v, unit)
	}
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares, with
// units; every run prints all of one list (the benchmark's tests check that
// the lists match the file).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_cpu_s", "1/s"},
	{"live_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"adversary.plan_us.p50", "us"},
	{"adversary.plan_us.p99", "us"},
	{"adversary.plan_share", "frac"},
	{"sim.window_us.p50", "us"},
	{"sim.window_us.p99", "us"},
	{"sim.exec_us.p50", "us"},
	{"sim.exec_us.p99", "us"},
	{"sim.ns_per_msg", "ns"},
	{"sim.windows", "count"},
	{"sim.columnar_share", "frac"},
	{"sim.allocs_per_window", "count"},
	{"registry.acquire_us.p50", "us"},
	{"registry.acquire_us.p90", "us"},
	{"registry.release_us.p50", "us"},
	{"registry.engines_built", "count"},
	{"registry.trials", "count"},
	{"registry.allocs_per_trial", "count"},
	{"registry.sink_consume_us.p50", "us"},
	{"registry.sink_consume_us.p90", "us"},
	{"registry.sink_bytes", "bytes"},
	{"registry.emit_gap_ms.p90", "ms"},
	{"registry.sweep_overhead_frac", "frac"},
	{"service.lo.p50_ms", "ms"},
	{"service.lo.p99_ms", "ms"},
	{"service.hi.p50_ms", "ms"},
	{"service.hi.p99_ms", "ms"},
	{"service.max_rps", "1/s"},
	{"service.run.handler_ms.p50", "ms"},
	{"service.run.handler_ms.p99", "ms"},
	{"service.instance.handler_ms.p50", "ms"},
	{"service.instance.handler_ms.p90", "ms"},
	{"service.trace.handler_ms.p50", "ms"},
	{"service.trace_bytes_per_req", "bytes"},
	{"service.overhead_ms.p50", "ms"},
	{"service.net_ms.p50", "ms"},
	{"service.gen_late_ms.p50", "ms"},
	{"service.gen_late_ms.p99", "ms"},
	{"service.shed", "count"},
	{"service.conflicts", "count"},
	{"service.journal_bytes_per_run", "bytes"},
	{"service.replay_ms", "ms"},
	{"trace_overhead_frac", "frac"},
}

// liveAfter runs build from empty engine pools with the collector paused,
// then one full collection, and returns the live heap that collection
// found, in MB: the whole state build leaves, such as engines, pools and a
// server. With the collector paused, nothing build pooled can age out of a
// sync.Pool before the measurement, so the figure repeats run to run.
func liveAfter(build func() error) (float64, error) {
	emptyPools()
	old := debug.SetGCPercent(-1)
	err := build()
	runtime.GC()
	debug.SetGCPercent(old)
	if err != nil {
		return 0, err
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20), nil
}

// emptyPools drops every pooled engine: sync.Pool keeps idle entries
// through one collection, so it takes two.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// hostFingerprint describes the machine the numbers came from, as far as
// the runtime reports it (reference.json records the CPU model).
func hostFingerprint() string {
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d go=%s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// runDir, under the checkout's build directory, holds a run's sweep exports
// and journals (removed when the run ends) and a traced run's spans.
const runDir = ".bench_build/perfbench-run"

// setupReps is how many set-ups every timed run measures; setup_s is the
// median of their process CPU times.
const setupReps = 11

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "stall, wide, grid or serve")
		seed     = fs.Uint64("seed", 1, "input seed: the same seed gives the same trials and requests")
		seconds  = fs.Int("seconds", 15, "measured time per run")
		trace    = fs.Int("trace", 0, "0: untraced end-to-end run; 1: separate traced run with per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1}
	w, isSweep := sweepWorkloads[cfg.workload]
	if !isSweep && cfg.workload != "serve" {
		return fmt.Errorf("unknown --workload %q (want stall, wide, grid or serve)", cfg.workload)
	}

	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	cfg.spans = filepath.Join(runDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed))
	var err error
	cfg.dir, err = os.MkdirTemp(runDir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)

	rep := &report{log: stdout, metrics: map[string]metric{}}
	rep.logf("perfbench workload=%s seed=%d seconds=%d trace=%d host: %s",
		cfg.workload, cfg.seed, *seconds, *trace, hostFingerprint())
	switch {
	case isSweep && !cfg.trace:
		err = runSweepTimed(w, cfg, rep)
	case isSweep:
		err = runSweepTraced(w, cfg, rep)
	case !cfg.trace:
		err = runServeTimed(cfg, rep)
	default:
		err = runServeTraced(cfg, rep)
	}
	if err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed the correctness gate", rep.failed, rep.attempted)
	}

	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
		}
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
			rep.logf("  %-34s n/a on this workload", m.name)
		}
		out[m.name] = v
	}
	if !cfg.trace {
		for _, m := range endToEnd {
			rep.logf("%-18s %.6g %s", m.name, out[m.name].Value, m.unit)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
