package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/sim"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// The offline workloads time a fixed instance: an S-Net LP's solve time
// swings by ±30% between demand matrices that differ by 1–15% noise, so
// the twenty or so solves a run affords cannot make a median that holds
// from one seed's matrices to another's (BASELINE.md has the figures). The timed matrices are therefore
// the repository's own S-Net experiment series, and the seed draws an
// extra probe matrix per run that is solved and checked like every other
// output but not timed.
const (
	// snetSeriesSeed and snetIntervals give experiments.NewSNet's default
	// series (EnvConfig.Seed 1 + 7, 24 intervals, the generator's noise).
	snetSeriesSeed = 8
	snetIntervals  = 24
	snetNoise      = 0.15 // demand.Generate's default σ, for the probe
	// driftSeriesSeed and driftNoise give the S-Net re-solve series of the
	// warm-start benchmarks (warm_bench_test.go): σ = 5% per interval.
	driftSeriesSeed = 61
	driftNoise      = 0.05
)

// coldCycle holds the intervals snet-cold solves in turn: the three that
// sim.CalibrateScale samples (stride 24/3).
var coldCycle = []int{0, 8, 16}

// driftCycle holds the intervals snet-drift re-solves in turn after the
// cold interval 0: every solve is a warm re-solve on changed demands.
var driftCycle = []int{1, 2, 3}

// offlineProt is the protection level of both offline workloads.
var offlineProt = core.Protection{Ke: 1}

// snetEnv is the offline set-up: S-Net, the experiment series at the
// calibrated traffic scale 1.0, the CLI tunnel layout and a solver with
// the CLI options.
type snetEnv struct {
	net    *topology.Network
	tun    *tunnel.Set
	solver *core.Solver
	scale  float64
	series demand.Series // scaled to traffic scale 1.0
}

// setupSNet builds the environment the way experiments.buildEnv does —
// layout over every flow of the series, then sim.CalibrateScale over 3
// sample intervals at 99% satisfaction with buildEnv's options — and a
// solver with the CLI options for the timed solves.
func setupSNet(cfg runConfig, op, parent int64) (*snetEnv, error) {
	net := topology.SNet()
	raw := demand.Generate(net, demand.Config{Intervals: snetIntervals}, rand.New(rand.NewSource(snetSeriesSeed)))
	t0 := time.Now()
	tun := tunnel.Layout(net, sim.FlowsOf(raw), cliLayout)
	t1 := time.Now()
	cfg.tr.add(op, parent, "tunnel.layout", t0, t1)
	calOpts := core.Options{Encoding: core.SortNet, MiceFraction: 0.01, OldLoadSkip: 1e-5, WeightSkip: 1e-3}
	scale, err := sim.CalibrateScale(core.NewSolver(net, tun, calOpts), raw, 0.99, 3)
	cfg.tr.add(op, parent, "sim.calibrate", t1, time.Now())
	if err != nil {
		return nil, fmt.Errorf("calibrating S-Net: %w", err)
	}
	return &snetEnv{net: net, tun: tun, solver: core.NewSolver(net, tun, cliOptions()),
		scale: scale, series: sim.ScaleSeries(raw, scale)}, nil
}

// offlineOp is one solve. key names its matrix: an index into the
// workload's cycle, or probeKey.
type offlineOp struct {
	id    int64
	key   int
	dem   demand.Matrix
	st    *core.State
	stats *core.Stats
	err   error
	solve cost
	alloc uint64
	// Filled by checkOffline.
	certify cost
	cert    *check.Certificate
	encode  cost // wire.EncodeState + json.Marshal, as ffcte emits a plan
	encoded int
}

const probeKey = -1

// timedSolve runs one solve and records its cost, its allocation and
// its spans: core.solve, split by core.Stats into core.build and lp (the
// LP model is private to core, so the split is the one core reports).
func timedSolve(cfg runConfig, op, parent int64, solve func(core.Input) (*core.State, *core.Stats, error), dem demand.Matrix) offlineOp {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := now()
	st, stats, err := solve(core.Input{Demands: dem, Prot: offlineProt})
	t1 := now()
	runtime.ReadMemStats(&m1)
	root := cfg.tr.add(op, parent, "core.solve", t0.wall, t1.wall)
	if stats != nil {
		mid := t0.wall.Add(stats.BuildTime)
		cfg.tr.add(op, root, "core.build", t0.wall, mid)
		cfg.tr.add(op, root, "lp", mid, t1.wall)
	}
	return offlineOp{id: op, dem: dem, st: st, stats: stats, err: err, solve: t0.to(t1), alloc: m1.TotalAlloc - m0.TotalAlloc}
}

// runCycles solves mats in turn, whole cycles only, so every matrix is
// timed equally often; it starts another cycle while the last one would
// still fit in the window.
func runCycles(cfg runConfig, mats []demand.Matrix, solve func(core.Input) (*core.State, *core.Stats, error)) ([]offlineOp, time.Duration) {
	var ops []offlineOp
	start := time.Now()
	for {
		c0 := time.Now()
		for k, m := range mats {
			o := timedSolve(cfg, cfg.tr.newID(), 0, solve, m)
			o.key = k
			ops = append(ops, o)
		}
		if time.Since(start)+time.Since(c0) > cfg.window {
			return ops, time.Since(start)
		}
	}
}

// checkOffline checks every operation outside the timed region: the solve
// must succeed optimally, check.Certify must accept the plan at ke=1, and
// its objective and granted rate must match a reference solve of the same
// matrix with the Compact encoding — a different LP with the same unique
// optimum. With replay set, every solve of one matrix must also return
// the bit-identical objective and rate (cold solves are deterministic). A
// plan the benchmark cannot check is an error.
func checkOffline(cfg runConfig, env *snetEnv, ops []offlineOp, replay bool, rep *report) error {
	refOpts := cliOptions()
	refOpts.Encoding = core.Compact
	ref := core.NewSolver(env.net, env.tun, refOpts)
	type refResult struct{ obj, rate float64 }
	refs := map[int]refResult{}
	first := map[int]*offlineOp{}
	for i := range ops {
		o := &ops[i]
		rep.attempted++
		if o.err != nil || o.stats == nil || o.stats.Outcome != core.OutcomeOptimal || o.st == nil {
			rep.fail("op %d: solve failed (outcome %v): %v", i, outcomeOf(o.stats), o.err)
			continue
		}
		t0 := now()
		cert, err := check.Certify(env.net, env.tun, o.st, o.st, check.Params{Prot: offlineProt})
		t1 := now()
		cfg.tr.add(o.id, 0, "check.certify", t0.wall, t1.wall)
		if err != nil {
			return fmt.Errorf("op %d: certifying: %w", i, err)
		}
		o.certify, o.cert = t0.to(t1), cert

		blob, err := json.Marshal(wire.EncodeState(env.net, env.tun, o.dem, o.st))
		t2 := now()
		cfg.tr.add(o.id, 0, "wire.encode", t1.wall, t2.wall)
		if err != nil {
			return fmt.Errorf("op %d: encoding plan: %w", i, err)
		}
		o.encode, o.encoded = t1.to(t2), len(blob)

		r, ok := refs[o.key]
		if !ok {
			rst, rstats, err := ref.Solve(core.Input{Demands: o.dem, Prot: offlineProt})
			cfg.tr.add(o.id, 0, "reference.solve", t2.wall, time.Now())
			if err != nil || rstats.Outcome != core.OutcomeOptimal {
				return fmt.Errorf("op %d: reference solve: %v", i, err)
			}
			r = refResult{rstats.Objective, rst.TotalRate()}
			refs[o.key] = r
		}
		f := first[o.key]
		if f == nil {
			first[o.key] = o
		}
		switch {
		case !cert.OK:
			rep.wrongOutput("op %d: plan fails certification: %s", i, cert.Summary())
		case !relClose(o.stats.Objective, r.obj, 1e-6):
			rep.wrongOutput("op %d: objective %.12g, reference %.12g", i, o.stats.Objective, r.obj)
		case !relClose(o.st.TotalRate(), r.rate, 1e-6):
			rep.wrongOutput("op %d: granted rate %.12g, reference %.12g", i, o.st.TotalRate(), r.rate)
		case replay && f != nil && (o.stats.Objective != f.stats.Objective || o.st.TotalRate() != f.st.TotalRate()):
			rep.wrongOutput("op %d: re-solve of the same matrix returned objective %.17g, first solve %.17g",
				i, o.stats.Objective, f.stats.Objective)
		}
	}
	return nil
}

func outcomeOf(s *core.Stats) string {
	if s == nil {
		return "none"
	}
	return s.Outcome.String()
}

// offlineMetrics fills the end-to-end and per-layer metrics of an offline
// run from its timed operations.
func offlineMetrics(cfg runConfig, rep *report, setups []cost, ops []offlineOp, wall time.Duration) {
	s := samples{setup: setups, wall: wall}
	var perOp [][3]float64 // matrix key, solve ms, simplex iterations
	for _, o := range ops {
		s.solve = append(s.solve, o.solve)
		s.served = append(s.served, o.solve.plus(o.encode))
		s.certified = append(s.certified, o.solve.plus(o.encode).plus(o.certify))
		s.alloc += o.alloc
		it := -1
		if o.stats != nil {
			it = o.stats.Iters
		}
		perOp = append(perOp, [3]float64{float64(o.key), ms(o.solve.wall), float64(it)})
	}
	commonMetrics(rep, s)
	rep.detail["ops"] = perOp

	if !cfg.tr.on {
		return
	}
	var stats []*core.Stats
	var cases, encoded []float64
	exact, certFail := 0, 0
	measured := map[int64]bool{}
	for _, o := range ops {
		measured[o.id] = true
		if o.stats != nil {
			stats = append(stats, o.stats)
		}
		if o.cert != nil {
			cases = append(cases, float64(o.cert.CasesChecked))
			encoded = append(encoded, float64(o.encoded))
			if o.cert.Exact {
				exact++
			}
			if !o.cert.OK {
				certFail++
			}
		}
	}
	solverLayers(rep, stats)
	spans := cfg.tr.spans
	rep.layer["lp.time_s"] = median(selfByName(spans, "lp", measured)) / 1e9
	rep.layer["core.build_s"] = median(selfByName(spans, "core.build", measured)) / 1e9
	rep.layer["check.certify_ms"] = median(selfByName(spans, "check.certify", measured)) / 1e6
	rep.layer["check.cases"] = median(cases)
	rep.layer["check.exact_frac"] = frac(exact, len(cases))
	rep.layer["check.fail"] = float64(certFail)
	rep.layer["wire.plan_bytes"] = median(encoded)
	rep.layer["wire.encode_ms"] = median(selfByName(spans, "wire.encode", measured)) / 1e6
	rep.layer["tunnel.layout_s"] = median(selfByName(spans, "tunnel.layout", nil)) / 1e9
	rep.layer["sim.calibrate_s"] = median(selfByName(spans, "sim.calibrate", nil)) / 1e9
	for _, d := range perLayer {
		if _, ok := rep.layer[d.name]; !ok {
			rep.layer[d.name] = 0 // a controller layer: not exercised offline
		}
	}
}

// solverLayers reports the lp, core and sortnet counters core.Stats
// returns for each solve: medians for per-solve work, fractions of solves
// for the warm-start flags.
func solverLayers(rep *report, stats []*core.Stats) {
	var iters, p1, reinv, nnz, flips, devex, vars, cons, encVars, encCons []float64
	warm, fell, cached, reused, nonopt := 0, 0, 0, 0, 0
	for _, s := range stats {
		iters = append(iters, float64(s.LP.Iters))
		p1 = append(p1, float64(s.LP.Phase1Iters))
		reinv = append(reinv, float64(s.LP.Reinversions))
		nnz = append(nnz, float64(s.LP.BasisNnz))
		flips = append(flips, float64(s.LP.BoundFlips))
		devex = append(devex, float64(s.LP.DevexResets))
		vars = append(vars, float64(s.Vars))
		cons = append(cons, float64(s.Constraints))
		encVars = append(encVars, float64(s.EncodingVars))
		encCons = append(encCons, float64(s.EncodingConstraints))
		if s.LP.Warm {
			warm++
		}
		if s.LP.WarmFellBack {
			fell++
		}
		if s.LP.PresolveCached {
			cached++
		}
		if s.ModelReused {
			reused++
		}
		if s.Outcome != core.OutcomeOptimal {
			nonopt++
		}
	}
	n := len(stats)
	rep.layer["lp.iters"] = median(iters)
	rep.layer["lp.phase1_iters"] = median(p1)
	rep.layer["lp.reinversions"] = median(reinv)
	rep.layer["lp.basis_nnz"] = median(nnz)
	rep.layer["lp.bound_flips"] = median(flips)
	rep.layer["lp.devex_resets"] = median(devex)
	rep.layer["lp.warm_frac"] = frac(warm, n)
	rep.layer["lp.warm_fallback_frac"] = frac(fell, n)
	rep.layer["lp.presolve_cached_frac"] = frac(cached, n)
	rep.layer["core.template_hit_frac"] = frac(reused, n)
	rep.layer["core.lp_vars"] = median(vars)
	rep.layer["core.lp_cons"] = median(cons)
	rep.layer["core.nonoptimal"] = float64(nonopt)
	rep.layer["sortnet.vars"] = median(encVars)
	rep.layer["sortnet.constraints"] = median(encCons)
}

// repeatSetup runs set-up cfg.setups times and keeps the last result,
// handing each earlier one to release (when non-nil) outside the timing.
// The first repetition is timed from process start, so it also covers
// the runtime's own start-up. Each repetition is one traced operation
// under a "setup" root span.
func repeatSetup[T any](cfg runConfig, setup func(op, root int64) (T, error), release func(T)) (T, []cost, error) {
	var env T
	var costs []cost
	for i := 0; i < cfg.setups; i++ {
		t0 := now()
		if i == 0 {
			t0 = stamp{wall: cfg.started} // the process's CPU clock starts at 0
		}
		op, root := cfg.tr.newID(), cfg.tr.newID()
		next, err := setup(op, root)
		if err != nil {
			if i > 0 && release != nil {
				release(env)
			}
			return env, nil, err
		}
		end := now()
		cfg.tr.record(root, op, 0, "setup", t0.wall, end.wall)
		costs = append(costs, t0.to(end))
		if i > 0 && release != nil {
			release(env)
		}
		env = next
	}
	return env, costs, nil
}

// runSNetCold solves the cycle's intervals cold at ke=1, one at a time,
// then the seed's probe matrix.
func runSNetCold(cfg runConfig) (*report, error) {
	env, setups, err := repeatSetup(cfg, func(op, root int64) (*snetEnv, error) { return setupSNet(cfg, op, root) }, nil)
	if err != nil {
		return nil, err
	}
	var mats []demand.Matrix
	for _, t := range coldCycle {
		mats = append(mats, env.series[t])
	}
	ops, wall := runCycles(cfg, mats, env.solver.Solve)
	probe := seededSeries(env.net, 1, snetSeriesSeed, snetNoise, rand.New(rand.NewSource(cfg.seed)))[0].Scale(env.scale)
	p := timedSolve(cfg, cfg.tr.newID(), 0, env.solver.Solve, probe)
	p.key = probeKey
	rep := newReport()
	if err := checkOffline(cfg, env, append(ops, p), true, rep); err != nil {
		return nil, err
	}
	offlineMetrics(cfg, rep, setups, ops, wall)
	return rep, nil
}

// driftEnv is the drift set-up: the S-Net environment, the re-solve
// series scaled so its interval 0 carries the load of the environment's
// interval 0, and a Session that solved interval 0 cold.
type driftEnv struct {
	*snetEnv
	drift demand.Series
	scale float64 // the drift series' factor
	sess  *core.Session
}

func setupDrift(cfg runConfig, op, root int64) (*driftEnv, error) {
	env, err := setupSNet(cfg, op, root)
	if err != nil {
		return nil, err
	}
	raw := demand.Generate(env.net, demand.Config{Intervals: 1 + len(driftCycle), NoiseSigma: driftNoise},
		rand.New(rand.NewSource(driftSeriesSeed)))
	k := env.series[0].Total() / raw[0].Total()
	drift := sim.ScaleSeries(raw, k)
	sess := env.solver.NewSession()
	if first := timedSolve(cfg, op, root, sess.Solve, drift[0]); first.err != nil {
		return nil, fmt.Errorf("drift interval 0: %w", first.err)
	}
	return &driftEnv{snetEnv: env, drift: drift, scale: k, sess: sess}, nil
}

// runSNetDrift re-solves the drift cycle with one Session, then the
// seed's probe matrix; interval 0, the unavoidable cold build, is set-up.
func runSNetDrift(cfg runConfig) (*report, error) {
	env, setups, err := repeatSetup(cfg, func(op, root int64) (*driftEnv, error) { return setupDrift(cfg, op, root) }, nil)
	if err != nil {
		return nil, err
	}
	var mats []demand.Matrix
	for _, t := range driftCycle {
		mats = append(mats, env.drift[t])
	}
	ops, wall := runCycles(cfg, mats, env.sess.Solve)
	probe := seededSeries(env.net, 1, driftSeriesSeed, driftNoise, rand.New(rand.NewSource(cfg.seed)))[0].Scale(env.scale)
	p := timedSolve(cfg, cfg.tr.newID(), 0, env.sess.Solve, probe)
	p.key = probeKey
	rep := newReport()
	if err := checkOffline(cfg, env.snetEnv, append(ops, p), false, rep); err != nil {
		return nil, err
	}
	offlineMetrics(cfg, rep, setups, ops, wall)
	return rep, nil
}
