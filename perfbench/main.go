// Command perfbench is the repository's benchmark. It runs one named
// workload with a seed for a fixed measuring time, checks every output
// the program produces, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload snet-cold --seed 1 --seconds 50 --trace 0
//
// (perfbench/run.sh does the build from the repository root.) Workloads:
//
//   - snet-cold: cold S-Net TE solves at ke=1, one at a time (ffcte's path);
//   - snet-drift: a core.Session re-solving a drifting S-Net series at ke=1
//     (the ctrl/sim interval loop: template matching, warm basis); run by
//     hand, not listed in BENCHMARK.json, since the few solves a run
//     affords do not give a steady median;
//   - ctrl-churn: an in-process ctrl.Controller served over loopback on the
//     testbed topology at kc=1, ke=1, driven by a closed-loop churn client
//     while a second connection reads the plan in an open loop.
//
// --trace 0 reports the end-to-end metrics, whose times are process CPU
// times (the host's steal moves wall-clock medians from run to run; every
// wall-clock figure is in the detail line). --trace 1 is a separate run
// that records spans around the program's public calls, writes them to
// --trace-dir, and reports the per-layer metrics. BASELINE.md maps each
// layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the ones BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"update_to_serve_cpu_ms.p50", "ms"},
	{"update_to_certified_cpu_ms.p50", "ms"},
	{"update_to_certified_cpu_ms.p90", "ms"},
	{"alloc_mb_per_op", "MB"},
}

var perLayer = []metricDef{
	{"lp.time_s", "s"},
	{"lp.iters", "count"},
	{"lp.phase1_iters", "count"},
	{"lp.reinversions", "count"},
	{"lp.basis_nnz", "count"},
	{"lp.bound_flips", "count"},
	{"lp.devex_resets", "count"},
	{"lp.warm_frac", "1"},
	{"lp.warm_fallback_frac", "1"},
	{"lp.presolve_cached_frac", "1"},
	{"core.build_s", "s"},
	{"core.template_hit_frac", "1"},
	{"core.lp_vars", "count"},
	{"core.lp_cons", "count"},
	{"core.nonoptimal", "count"},
	{"sortnet.vars", "count"},
	{"sortnet.constraints", "count"},
	{"check.certify_ms", "ms"},
	{"check.cases", "count"},
	{"check.exact_frac", "1"},
	{"check.fail", "count"},
	{"ctrl.update_rtt_ms", "ms"},
	{"ctrl.solve_ms", "ms"},
	{"ctrl.publish_lag_ms", "ms"},
	{"ctrl.cert_lag_ms", "ms"},
	{"ctrl.degraded_installs", "count"},
	{"ctrl.relayouts", "count"},
	{"ctrl.cert_skipped", "count"},
	{"ctrl.cert_failures", "count"},
	{"ctrl.plans_per_update", "1"},
	{"ctrl.reader_late_ms.p90", "ms"},
	{"wire.plan_bytes", "bytes"},
	{"wire.encode_ms", "ms"},
	{"tunnel.layout_s", "s"},
	{"sim.calibrate_s", "s"},
	// The wall-clock figures behind the end-to-end metrics, and the
	// end-to-end figures a workload lacks or that can be 0 (BASELINE.md).
	{"setup_wall_s", "s"},
	{"solve_s.p50", "s"},
	{"update_to_serve_ms.p50", "ms"},
	{"update_to_serve_ms.p90", "ms"},
	{"update_to_certified_ms.p50", "ms"},
	{"update_to_certified_ms.p90", "ms"},
	{"serve_ms.p50", "ms"},
	{"serve_ms.p90", "ms"},
	{"updates_per_s", "1/s"},
	{"failed_frac", "1"},
	// The traced run's own update_to_certified_cpu_ms.p50: minus the
	// untraced run's figure, the tracing overhead.
	{"trace.update_to_certified_cpu_ms.p50", "ms"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration
	tr      *tracer
	setups  int       // set-up repetitions; setup_s is their median
	started time.Time // process start, the first set-up's origin
}

// report is a workload's outcome. Layer metrics a workload does not
// exercise are reported as 0 (the layer did no work).
type report struct {
	attempted, failed int
	// wrong counts outputs an independent check found wrong although the
	// program reported success (a subset of failed).
	wrong int
	// failures holds the first few failure reasons.
	failures []string
	e2e      map[string]float64
	layer    map[string]float64
	// detail carries sample counts and spreads for the human-readable
	// line printed before the result.
	detail map[string]interface{}
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]interface{}{}}
}

// fail counts one operation the program itself reported as failed: an
// error, a non-optimal outcome, a degraded install, a plan its own
// certifier rejected.
func (r *report) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// wrongOutput counts one failed operation whose output the program
// reported as good but an independent check rejected; it makes the run
// incorrect.
func (r *report) wrongOutput(format string, args ...interface{}) {
	r.wrong++
	r.fail("wrong output: "+format, args...)
}

// samples are a run's per-operation costs behind the metrics every
// workload reports. An operation is a solve offline and an update on
// ctrl-churn.
type samples struct {
	setup     []cost // one per set-up repetition
	solve     []cost // the solve alone
	served    []cost // input handed over → plan ready to serve
	certified []cost // input handed over → plan certified
	wall      time.Duration
	alloc     uint64 // bytes allocated over the timed operations
}

// commonMetrics fills the end-to-end metrics, and the layer metrics that
// every workload shares, from one run's samples. The end-to-end times are
// CPU times (BASELINE.md: the host's steal makes wall-clock medians swing
// between runs); the wall-clock figures are layer metrics and detail.
// Call it after every failure of the run has been counted.
func commonMetrics(rep *report, s samples) {
	split := func(cs []cost) (wall, cpu []float64) {
		for _, c := range cs {
			wall, cpu = append(wall, ms(c.wall)), append(cpu, ms(c.cpu))
		}
		return wall, cpu
	}
	setupWall, setupCPU := split(s.setup)
	solveWall, _ := split(s.solve)
	servedWall, servedCPU := split(s.served)
	certWall, certCPU := split(s.certified)
	served, certified := summarize(servedWall), summarize(certWall)
	servedC, certifiedC := summarize(servedCPU), summarize(certCPU)
	n := len(s.solve)

	rep.e2e["setup_s"] = median(setupCPU) / 1e3
	rep.e2e["update_to_serve_cpu_ms.p50"] = servedC.P50
	rep.e2e["update_to_certified_cpu_ms.p50"] = certifiedC.P50
	rep.e2e["update_to_certified_cpu_ms.p90"] = certifiedC.P90
	rep.e2e["alloc_mb_per_op"] = float64(s.alloc) / float64(n) / 1e6

	l := rep.layer
	l["setup_wall_s"] = median(setupWall) / 1e3
	l["solve_s.p50"] = median(solveWall) / 1e3
	l["update_to_serve_ms.p50"] = served.P50
	l["update_to_serve_ms.p90"] = served.P90
	l["update_to_certified_ms.p50"] = certified.P50
	l["update_to_certified_ms.p90"] = certified.P90
	l["updates_per_s"] = float64(n) / s.wall.Seconds()
	l["failed_frac"] = frac(rep.failed, rep.attempted)
	l["trace.update_to_certified_cpu_ms.p50"] = certifiedC.P50

	rep.detail["setup_cpu_ms"] = summarize(setupCPU)
	rep.detail["setup_wall_ms"] = summarize(setupWall)
	rep.detail["solve_ms"] = summarize(solveWall)
	rep.detail["update_to_serve_ms"] = served
	rep.detail["update_to_certified_ms"] = certified
	rep.detail["update_to_serve_cpu_ms"] = servedC
	rep.detail["update_to_certified_cpu_ms"] = certifiedC
}

// workload is one named benchmark workload. setups is its number of
// set-up repetitions: more where set-up is short and so noisier.
type workload struct {
	run    func(runConfig) (*report, error)
	setups int
}

var workloads = map[string]workload{
	"snet-cold":  {runSNetCold, 3},
	"snet-drift": {runSNetDrift, 3},
	"ctrl-churn": {runCtrlChurn, 15},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	started := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: snet-cold, snet-drift, ctrl-churn")
		seed     = fs.Int64("seed", 1, "input seed (the same seed gives the same inputs)")
		seconds  = fs.Float64("seconds", 50, "measuring time")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		traceDir = fs.String("trace-dir", ".bench_build/perfbench-trace", "where a traced run writes its spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload snet-cold|snet-drift|ctrl-churn, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		tr:      newTracer(*trace == 1),
		setups:  w.setups,
		started: started,
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	vals := rep.e2e
	if *trace == 1 {
		defs, vals = perLayer, rep.layer
	}
	res, err := buildResult(rep, defs, vals)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: failed operation: %s\n", f)
	}
	if *trace == 1 {
		path, err := cfg.tr.write(*traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep.detail["trace_file"] = path
		rep.detail["spans"] = len(cfg.tr.spans)
	}
	rep.detail["workload"] = *name
	rep.detail["seed"] = *seed
	if blob, err := json.Marshal(map[string]interface{}{"detail": rep.detail}); err == nil {
		fmt.Fprintln(stdout, string(blob))
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(blob))
	return 0
}

// buildResult assembles the result line. A metric the workload did not
// produce, or produced as NaN/Inf, is an output the benchmark could not
// check: that is an error, not a result.
func buildResult(rep *report, defs []metricDef, vals map[string]float64) (*result, error) {
	if rep.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{
		Correct:   rep.wrong == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}
