// Command ffcbench regenerates the paper's tables and figures (see
// DESIGN.md's per-experiment index). Examples:
//
//	ffcbench -exp all
//	ffcbench -exp fig13,fig14 -net lnet -sites 10 -intervals 48
//	ffcbench -exp table2 -net both
//	ffcbench -exp table2 -net snet -stats          # + solver counters, BENCH_snet.json
//	ffcbench -exp all -debug-addr localhost:6060   # live pprof/expvar
//
// Output is text: aligned tables for bar/line figures and "x y" series for
// CDFs, labelled with the corresponding paper artifact. With -stats the
// run additionally times an S-Net-style solve micro-pass and writes
// machine-readable BENCH_<net>.json (see internal/obs) — the same format
// the CI perf gate (cmd/benchgate) consumes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/experiments"
	"ffc/internal/faults"
	"ffc/internal/metrics"
	"ffc/internal/obs"
	"ffc/internal/parallel"
	"ffc/internal/sim"
)

var allExperiments = []string{
	"fig1a", "fig1b", "fig2to5", "fig6", "fig11", "fig12", "table2",
	"fig13", "fig14", "fig15", "fig16", "ablation_encoding", "ablation_tunnels", "ablation_rescaling",
}

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiment ids, or 'all' ("+strings.Join(allExperiments, ",")+")")
		netKind    = flag.String("net", "lnet", "network: lnet, snet, or both")
		sites      = flag.Int("sites", 8, "L-Net sites (the real L-Net is ~50; larger is slower)")
		intervals  = flag.Int("intervals", 24, "TE intervals in the demand series")
		seed       = flag.Int64("seed", 1, "random seed")
		tunnels    = flag.Int("tunnels", 6, "tunnels per flow")
		quick      = flag.Bool("quick", false, "shrink everything for a fast smoke run")
		par        = flag.Int("parallel", 0, "worker count for parallel stages, including LP constraint emission (<=0 = all cores, 1 = serial)")
		warm       = flag.Bool("warm", false, "warm-start serial interval re-solves from the previous basis across the harness")
		template   = flag.Bool("template", true, "reuse LP model templates across interval re-solves (rebind bounds/RHS instead of re-formulating); -template=false forces scratch builds")
		compare    = flag.Bool("compare-serial", false, "after the run, repeat with -parallel 1 and print a wall-clock speedup table")
		stats      = flag.Bool("stats", false, "enable instrumentation: print solver counters and a latency breakdown, run a solve micro-benchmark, and write BENCH_<net>.json")
		benchJSON  = flag.String("bench-json", "", "override the BENCH output path (default BENCH_<net>.json per environment; implies -stats semantics for the file)")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/obs on this address (e.g. localhost:6060)")
		deadline   = flag.Duration("solver-deadline", 0, "per-interval TE solve budget across the harness; a missed solve degrades the interval to the last-good plan (0 = unbounded)")
		injectSpec = flag.String("inject-solver", "", "inject controller faults into every sim, e.g. timeout=0.1,crash=0.01,stale=0.02; tags BENCH entries 'degraded'")
	)
	flag.Parse()

	injected, err := faults.ParseSolverFaults(*injectSpec)
	if err != nil {
		fatalf("-inject-solver: %v", err)
	}
	degradedRun := *deadline > 0 || injected.Enabled()

	if *stats {
		obs.Enable()
	}
	if *debugAddr != "" {
		addr, err := obs.Serve(*debugAddr)
		if err != nil {
			fatalf("debug server: %v", err)
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/obs (pprof, vars)\n", addr)
	}

	if *quick {
		*sites, *intervals, *tunnels = 6, 6, 4
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, e := range allExperiments {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			e = strings.TrimSpace(e)
			if e != "" {
				want[e] = true
			}
		}
	}
	for e := range want {
		if !contains(allExperiments, e) {
			fatalf("unknown experiment %q; known: %s", e, strings.Join(allExperiments, ", "))
		}
	}

	var envs []*experiments.Env
	needEnv := false
	for e := range want {
		if e != "fig6" && e != "fig11" && e != "fig2to5" {
			needEnv = true
		}
	}
	// SIGINT/SIGTERM cancel the sim-backed experiments through the solver
	// budget path; interrupted figures report partial aggregates and the
	// run proceeds to whatever output it can still write.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if needEnv {
		cfg := experiments.EnvConfig{Sites: *sites, Intervals: *intervals, Seed: *seed, TunnelsPerFlow: *tunnels, Parallelism: *par, WarmStart: *warm, SolverDeadline: *deadline, SolverFaults: injected,
			BuildWorkers: experiments.BuildWorkersFor(*par), NoTemplate: !*template, Ctx: ctx}
		if *netKind == "lnet" || *netKind == "both" {
			fmt.Fprintf(os.Stderr, "building L-Net environment (%d sites, %d intervals)...\n", *sites, *intervals)
			env, err := experiments.NewLNet(cfg)
			if err != nil {
				fatalf("%v", err)
			}
			envs = append(envs, env)
		}
		if *netKind == "snet" || *netKind == "both" {
			fmt.Fprintln(os.Stderr, "building S-Net environment...")
			env, err := experiments.NewSNet(cfg)
			if err != nil {
				fatalf("%v", err)
			}
			envs = append(envs, env)
		}
		if len(envs) == 0 {
			fatalf("unknown -net %q (want lnet, snet, or both)", *netKind)
		}
	}

	pass := func(out io.Writer, sw *metrics.Stopwatch, verbose bool) {
		run := func(id string, fn func() error) {
			if !want[id] {
				return
			}
			t0 := time.Now()
			if verbose {
				fmt.Fprintf(os.Stderr, "running %s...\n", id)
			}
			if err := fn(); err != nil {
				fatalf("%s: %v", id, err)
			}
			d := time.Since(t0)
			sw.Record(id, d)
			if verbose {
				fmt.Fprintf(os.Stderr, "  %s done in %v\n", id, d.Round(time.Millisecond))
			}
			fmt.Fprintln(out)
		}

		run("fig2to5", func() error { return experiments.Fig2to5(out) })
		run("fig6", func() error { experiments.Fig6(out); return nil })
		run("fig11", func() error { return experiments.Fig11(out) })
		for _, env := range envs {
			env := env
			run("fig1a", func() error { _, err := experiments.Fig1a(env, out); return err })
			run("fig1b", func() error { _, err := experiments.Fig1b(env, out); return err })
			run("fig12", func() error { _, err := experiments.Fig12(env, out); return err })
			run("table2", func() error { _, err := experiments.Table2(env, out); return err })
			run("fig13", func() error { _, err := experiments.Fig13(env, out, nil, nil); return err })
			run("fig14", func() error {
				_, err := experiments.Fig14(env, out, faults.Realistic())
				return err
			})
			run("fig15", func() error { _, err := experiments.Fig15(env, out, nil, 0); return err })
			run("fig16", func() error { _, err := experiments.Fig16(env, out, 0); return err })
			run("ablation_encoding", func() error { _, err := experiments.AblationEncoding(env, out); return err })
			run("ablation_tunnels", func() error { _, err := experiments.AblationTunnels(env, out); return err })
			run("ablation_rescaling", func() error { _, err := experiments.AblationRescaling(env, out); return err })
		}
	}

	start := time.Now()
	var parTimes metrics.Stopwatch
	pass(os.Stdout, &parTimes, true)
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "interrupted after %v: figure aggregates above cover only the completed intervals\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Fprintf(os.Stderr, "all done in %v\n", time.Since(start).Round(time.Millisecond))
	}

	workers := parallel.Workers(*par)
	var serTimes *metrics.Stopwatch
	if *compare {
		if workers == 1 {
			// The main pass already ran serially; re-running it would time
			// the identical configuration twice. Reuse its timings as the
			// serial numbers so downstream consumers (the -stats BENCH
			// entries) still see a serial column without a duplicate run.
			fmt.Println("# wall-clock: -compare-serial skipped — the run was already serial (-parallel=1), nothing to compare")
			serTimes = &parTimes
		} else {
			fmt.Fprintln(os.Stderr, "re-running serially (-parallel 1) for the speedup table...")
			for _, env := range envs {
				env.Parallelism = 1
			}
			serTimes = &metrics.Stopwatch{}
			pass(io.Discard, serTimes, false)
			fmt.Println("# wall-clock: serial vs parallel")
			fmt.Print(metrics.RenderSpeedup(serTimes, &parTimes))
			for _, env := range envs {
				env.Parallelism = *par
			}
		}
	}

	if *stats || *benchJSON != "" {
		if len(envs) == 0 {
			fmt.Fprintln(os.Stderr, "no environment built (-exp selected only synthetic figures); skipping the -stats micro-benchmark")
		}
		for i, env := range envs {
			path := *benchJSON
			if path == "" || len(envs) > 1 {
				path = "BENCH_" + envLabel(env) + ".json"
				if *benchJSON != "" && i == 0 {
					fmt.Fprintln(os.Stderr, "-bench-json ignored: multiple environments, writing per-env BENCH files")
				}
			}
			bf, err := statsPass(env, &parTimes, serTimes)
			if err != nil {
				fatalf("stats micro-benchmark (%s): %v", env.Name, err)
			}
			if degradedRun {
				// The experiment timings above ran under fault injection or a
				// solve deadline; mark every entry so the CI gate skips them.
				for i := range bf.Benchmarks {
					bf.Benchmarks[i].Tags = append(bf.Benchmarks[i].Tags, obs.BenchTagDegraded)
				}
			}
			if err := obs.WriteBenchFile(path, bf); err != nil {
				fatalf("writing %s: %v", path, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", path, len(bf.Benchmarks))
		}
		fmt.Fprintln(os.Stderr, "--- instrumentation dump (counters, spans) ---")
		obs.Default().WriteText(os.Stderr)
	}
}

// envLabel maps "S-Net" → "snet" for file names and "SNet" bench tags.
func envLabel(env *experiments.Env) string {
	return strings.ToLower(strings.ReplaceAll(env.Name, "-", ""))
}

// statsPass runs the instrumented micro-benchmark behind -stats: one plain
// and one FFC (ke=2) TE solve, warm vs cold interval re-solves, and cold
// vs template model builds. Experiment wall-clock timings from the main
// pass (and the -compare-serial speedups, when present) ride along.
func statsPass(env *experiments.Env, parTimes, serTimes *metrics.Stopwatch) (*obs.BenchFile, error) {
	const ke = 2
	fmt.Fprintf(os.Stderr, "stats micro-benchmark on %s (ke=%d)...\n", env.Name, ke)
	solver := core.NewSolver(env.Net, env.Tun, env.Opts)
	demands := sim.ScaleSeries(env.Series, env.Scale1)[0]

	bf := &obs.BenchFile{Schema: obs.BenchSchema, Label: envLabel(env)}

	// Plain TE solve.
	t0 := time.Now()
	_, plainStats, err := solver.Solve(core.Input{Demands: demands})
	if err != nil {
		return nil, err
	}
	bf.Benchmarks = append(bf.Benchmarks, obs.BenchEntry{
		Name: "ffcbench/" + bf.Label + "/solve_plain", NsPerOp: float64(time.Since(t0).Nanoseconds()), Ops: 1,
		Counters: map[string]int64{
			"iters":        int64(plainStats.LP.Iters),
			"reinversions": int64(plainStats.LP.Reinversions),
			"basis_nnz":    int64(plainStats.LP.BasisNnz),
		},
	})

	// FFC solve at ke=2 (data-plane protection).
	t0 = time.Now()
	_, ffcStats, err := solver.Solve(core.Input{Demands: demands, Prot: core.Protection{Ke: ke}})
	if err != nil {
		return nil, err
	}
	ffcNs := time.Since(t0)
	bf.Benchmarks = append(bf.Benchmarks, obs.BenchEntry{
		Name: "ffcbench/" + bf.Label + "/solve_ffc_ke2", NsPerOp: float64(ffcNs.Nanoseconds()), Ops: 1,
		Counters: map[string]int64{
			"iters":         int64(ffcStats.LP.Iters),
			"phase1_iters":  int64(ffcStats.LP.Phase1Iters),
			"reinversions":  int64(ffcStats.LP.Reinversions),
			"devex_resets":  int64(ffcStats.LP.DevexResets),
			"bound_flips":   int64(ffcStats.LP.BoundFlips),
			"basis_nnz":     int64(ffcStats.LP.BasisNnz),
			"presolve_rows": int64(ffcStats.LP.PresolveRows),
			"presolve_cols": int64(ffcStats.LP.PresolveCols),
			"lp_vars":       int64(ffcStats.Vars),
			"lp_cons":       int64(ffcStats.Constraints),
		},
	})
	fmt.Fprintf(os.Stderr, "  solve(ke=%d): %v  build %v  iters %d (phase1 %d)  reinversions %d  devex resets %d  basis nnz %d\n",
		ke, ffcStats.SolveTime.Round(time.Millisecond), ffcStats.BuildTime.Round(time.Millisecond),
		ffcStats.LP.Iters, ffcStats.LP.Phase1Iters, ffcStats.LP.Reinversions, ffcStats.LP.DevexResets, ffcStats.LP.BasisNnz)

	// Warm vs cold interval re-solves: a short serial chain of FFC solves
	// over a 5-minute-cadence drift series (σ = 5% per-interval noise,
	// scaled to the calibrated load), once starting each interval from
	// scratch and once carrying the previous interval's basis
	// (core.Session) — the workload of BenchmarkResolveWarmVsCold, with
	// matching counters so the CI gate can watch the iteration savings.
	// Mice classification is off for both modes: it re-buckets flows by
	// demand every interval, changing the LP's column set and forcing a
	// model rebuild that neither mode could reuse.
	gen := demand.Generate(env.Net, demand.Config{Intervals: 6, NoiseSigma: 0.05}, rand.New(rand.NewSource(61)))
	ref := sim.ScaleSeries(env.Series, env.Scale1)[0].Total()
	chain := sim.ScaleSeries(gen, ref/gen[0].Total())
	resolveOpts := env.Opts
	resolveOpts.MiceFraction = 0
	resolveSolver := core.NewSolver(env.Net, env.Tun, resolveOpts)
	resolve := func(warmStart bool) (time.Duration, int64, int64, error) {
		var elapsed time.Duration
		var iters, p1 int64
		solve := resolveSolver.Solve
		if warmStart {
			solve = resolveSolver.NewSession().Solve
		}
		for i, dem := range chain {
			if i == 0 {
				continue // interval 0 is the cold build either way
			}
			t0 := time.Now()
			_, s, err := solve(core.Input{Demands: dem, Prot: core.Protection{Ke: ke}})
			if err != nil {
				return 0, 0, 0, err
			}
			elapsed += time.Since(t0)
			iters += int64(s.LP.Iters)
			p1 += int64(s.LP.Phase1Iters)
		}
		return elapsed, iters, p1, nil
	}
	coldNs, coldIters, coldP1, err := resolve(false)
	if err != nil {
		return nil, err
	}
	warmNs, warmIters, warmP1, err := resolve(true)
	if err != nil {
		return nil, err
	}
	n := int64(len(chain) - 1)
	bf.Benchmarks = append(bf.Benchmarks,
		obs.BenchEntry{Name: "ffcbench/" + bf.Label + "/resolve_cold", NsPerOp: float64(coldNs.Nanoseconds()) / float64(n), Ops: n,
			Counters: map[string]int64{"iters": coldIters, "phase1_iters": coldP1}},
		obs.BenchEntry{Name: "ffcbench/" + bf.Label + "/resolve_warm", NsPerOp: float64(warmNs.Nanoseconds()) / float64(n), Ops: n,
			Counters: map[string]int64{"iters": warmIters, "phase1_iters": warmP1},
			Speedup:  metrics.Speedup(coldNs, warmNs)},
	)
	fmt.Fprintf(os.Stderr, "  resolve ×%d (ke=%d): cold %v / %d iters  warm %v / %d iters  (%.2fx time, %.2fx iters)\n",
		n, ke, coldNs.Round(time.Millisecond), coldIters, warmNs.Round(time.Millisecond), warmIters,
		metrics.Speedup(coldNs, warmNs), float64(coldIters)/float64(max64(warmIters, 1)))

	// Model-build cold vs warm on the same drift chain, timing formulation
	// only: cold builds every interval's LP from scratch (NewTemplate is
	// exactly a scratch formulate), warm freezes one ModelTemplate and
	// re-instantiates it per interval by rewriting bounds/RHS/objective
	// coefficients in place.
	buildIn := func(i int) core.Input {
		return core.Input{Demands: chain[i], Prot: core.Protection{Ke: ke}}
	}
	t0 = time.Now()
	for i := 1; i < len(chain); i++ {
		if _, err := resolveSolver.NewTemplate(buildIn(i)); err != nil {
			return nil, err
		}
	}
	buildCold := time.Since(t0)
	tmpl, err := resolveSolver.NewTemplate(buildIn(0))
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := 1; i < len(chain); i++ {
		if err := tmpl.Instantiate(buildIn(i)); err != nil {
			return nil, err
		}
	}
	buildWarm := time.Since(t0)
	sizeCounters := map[string]int64{"lp_vars": int64(tmpl.Vars()), "lp_cons": int64(tmpl.Constraints())}
	bf.Benchmarks = append(bf.Benchmarks,
		obs.BenchEntry{Name: "ffcbench/" + bf.Label + "/modelbuild_cold", NsPerOp: float64(buildCold.Nanoseconds()) / float64(n), Ops: n,
			Counters: sizeCounters},
		obs.BenchEntry{Name: "ffcbench/" + bf.Label + "/modelbuild_warm", NsPerOp: float64(buildWarm.Nanoseconds()) / float64(n), Ops: n,
			Counters: sizeCounters, Speedup: metrics.Speedup(buildCold, buildWarm)},
	)
	fmt.Fprintf(os.Stderr, "  modelbuild ×%d (ke=%d, %d vars, %d cons): cold %v  warm %v  (%.2fx)\n",
		n, ke, tmpl.Vars(), tmpl.Constraints(), buildCold.Round(time.Millisecond), buildWarm.Round(time.Millisecond),
		metrics.Speedup(buildCold, buildWarm))

	// Experiment wall-clock from the main pass, with serial/parallel
	// speedups when -compare-serial ran.
	for _, id := range parTimes.Names() {
		e := obs.BenchEntry{Name: "ffcbench/exp/" + id, NsPerOp: float64(parTimes.Get(id).Nanoseconds()), Ops: 1}
		if serTimes != nil {
			e.Speedup = metrics.Speedup(serTimes.Get(id), parTimes.Get(id))
		}
		bf.Benchmarks = append(bf.Benchmarks, e)
	}

	bf.Counters = obs.Default().CounterValues()
	return bf, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ffcbench: "+format+"\n", args...)
	os.Exit(1)
}
