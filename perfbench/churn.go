package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/ctrl"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/sim"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

const (
	// churnReadEvery paces the open-loop reader: 25 get_plan per second.
	churnReadEvery = 40 * time.Millisecond
	// churnPoll is the gap between the updater's stats polls while it
	// waits for the served seq and cert_runs to advance: a fine grid
	// against ~100 ms updates, and few enough wake-ups that the poller's
	// own CPU stays a small share of an update's.
	churnPoll = 250 * time.Microsecond
	// churnOpTimeout bounds the wait for one update's certified plan.
	churnOpTimeout = 10 * time.Second
	// churnUpdatesPerSecond sizes a run: --seconds × this many updates,
	// rounded up to whole blocks, a little under what the measuring time
	// holds (11–15 a second measured on the 2-vCPU reference machine,
	// fewer while its host takes CPU away). The count
	// is fixed by --seconds, not by how many updates fit into it, so a
	// seed's run always sends the same updates and the certification
	// failures among them (the known defect, BASELINE.md) come out the
	// same in every run.
	churnUpdatesPerSecond = 10
	// churnBlock is one of churnGen's blocks of ten changes with their undos.
	churnBlock = 20
	// churnMaxRun bounds the updater's loop, so that a run whose updates
	// have grown slow still ends within the benchmark's time limit; the
	// updates it did not send count as failed.
	churnMaxRun = 160 * time.Second
	dialTimeout = 5 * time.Second
)

// churnProt is the online workload's protection level; kc=1 brings in
// the control-plane cases in which the certifier rejects plans (BASELINE.md).
var churnProt = core.Protection{Kc: 1, Ke: 1}

// churnRig is a controller with ffcd's defaults and Certify on, served on
// loopback, holding its first certified plan.
type churnRig struct {
	net  *topology.Network
	set  *tunnel.Set // the controller's layout, rebuilt the same way
	c    *ctrl.Controller
	srv  *ctrl.Server
	boot ctrl.StatsSnapshot
}

func (r *churnRig) close() {
	r.srv.Close()
	r.c.Stop()
}

// setupChurn builds the testbed rig: the demands `topogen -kind testbed
// -demands` writes at its default seed (gravity series on topogen's
// demand stream, 99% calibration over 2 intervals, interval 0 at scale
// 1.0), then ctrl.New, ctrl.Serve and Start, until the first plan is
// served and certified. The seed drives the churn, not these demands:
// the base matrix sets the LP every update solves, and one seed's base
// would make its whole run faster or slower than another's.
func setupChurn(cfg runConfig, op, root int64, solverFaults faults.SolverFaultModel) (*churnRig, error) {
	net := topology.Testbed()
	series := demand.Generate(net, demand.Config{Intervals: 3}, rand.New(rand.NewSource(faults.DeriveSeed(1, 1))))
	t0 := time.Now()
	calSet := tunnel.Layout(net, sim.FlowsOf(series), tunnel.LayoutConfig{})
	t1 := time.Now()
	cfg.tr.add(op, root, "tunnel.layout", t0, t1)
	k, err := sim.CalibrateScale(core.NewSolver(net, calSet, core.Options{MiceFraction: 0.01}), series, 0.99, 2)
	t2 := time.Now()
	cfg.tr.add(op, root, "sim.calibrate", t1, t2)
	if err != nil {
		return nil, fmt.Errorf("calibrating testbed: %w", err)
	}
	dem := series[0].Scale(k)
	c, err := ctrl.New(ctrl.Config{
		Net: net, Demands: dem, Prot: churnProt, Layout: cliLayout, Opts: cliOptions(),
		Interval: time.Hour, Certify: &check.Params{}, Faults: solverFaults,
	})
	if err != nil {
		return nil, err
	}
	srv, err := ctrl.Serve(c, "127.0.0.1:0")
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.Start()
	rig := &churnRig{net: net, set: tunnel.Layout(net, dem.Flows(), cliLayout), c: c, srv: srv}
	deadline := time.Now().Add(churnOpTimeout)
	for {
		rig.boot = c.Stats()
		if rig.boot.PlanSeq >= 1 && rig.boot.CertRuns >= 1 {
			break
		}
		if time.Now().After(deadline) {
			rig.close()
			return nil, errors.New("no certified first plan")
		}
		time.Sleep(churnPoll)
	}
	cfg.tr.add(op, root, "ctrl.first_plan", t2, time.Now())
	return rig, nil
}

// churnGen streams ffcload -churn's update kinds, learned from the served
// routes: a link down (30%) or one flow's demand rescaled ×0.5–1.5 of its
// served value. Unlike ffcload, which lets rescales pile up, every change
// is undone by the next update (the link restored, the flow set back), so
// the controller returns to the base state every other update, and the
// changes come in shuffled blocks of ten with exactly three link downs.
// A run then samples one fixed distribution of updates and the seed picks
// which: with rescales left in place, the demand state a seed wanders
// into sets the cost of every later solve, and the median update moved
// by a third from one seed to another (BASELINE.md).
type churnGen struct {
	rng   *rand.Rand
	links [][2]string
	flows [][2]string
	base  map[[2]string]float64
	undo  *wire.Update
	block []bool // the rest of the current block: true = link down
}

func newChurnGen(routes []wire.StateFlow, rng *rand.Rand) *churnGen {
	g := &churnGen{rng: rng, base: map[[2]string]float64{}}
	seen := map[[2]string]bool{}
	for _, fl := range routes {
		f := [2]string{fl.Src, fl.Dst}
		g.base[f] = fl.Demand
		g.flows = append(g.flows, f)
		for _, t := range fl.Tunnels {
			for i := 0; i+1 < len(t.Path); i++ {
				l := [2]string{t.Path[i], t.Path[i+1]}
				if !seen[l] && !seen[[2]string{l[1], l[0]}] {
					seen[l] = true
					g.links = append(g.links, l)
				}
			}
		}
	}
	sort.Slice(g.flows, func(i, j int) bool {
		if g.flows[i][0] != g.flows[j][0] {
			return g.flows[i][0] < g.flows[j][0]
		}
		return g.flows[i][1] < g.flows[j][1]
	})
	return g
}

func (g *churnGen) next() *wire.Update {
	if u := g.undo; u != nil {
		g.undo = nil
		return u
	}
	if len(g.block) == 0 {
		g.block = []bool{true, true, true, false, false, false, false, false, false, false}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	link := g.block[0]
	g.block = g.block[1:]
	if link && len(g.links) > 0 {
		l := g.links[g.rng.Intn(len(g.links))]
		down, up := false, true
		g.undo = &wire.Update{Op: wire.UpdateLink, Src: l[0], Dst: l[1], Up: &up}
		return &wire.Update{Op: wire.UpdateLink, Src: l[0], Dst: l[1], Up: &down}
	}
	f := g.flows[g.rng.Intn(len(g.flows))]
	set := func(d float64) *wire.Update {
		return &wire.Update{Op: wire.UpdateDemands, Demands: []wire.DemandEntry{{Src: f[0], Dst: f[1], Demand: d}}}
	}
	g.undo = set(g.base[f])
	return set(g.base[f] * (0.5 + g.rng.Float64()))
}

// churnOp is one closed-loop update: sent, acknowledged, its plan served,
// that plan certified.
type churnOp struct {
	kind                           string // the update's wire op
	sent, acked, served, certified stamp
	solve                          time.Duration // meta.solve_time_ns of the served plan
}

// readerResult is the open-loop reader's account.
type readerResult struct {
	lat, late []time.Duration
	failures  []error
}

// openLoop calls do at start, start+every, … while the due time is before
// end. Each call is timed from when it was due, so a stall also charges
// the calls it delays; late records how far behind schedule each call
// was sent.
func openLoop(start, end time.Time, every time.Duration, do func() error) readerResult {
	var res readerResult
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(end) {
			return res
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		err := do()
		res.late = append(res.late, sent.Sub(due))
		res.lat = append(res.lat, time.Since(due))
		if err != nil {
			res.failures = append(res.failures, err)
		}
	}
}

// checkPlanReply is ffcload's torn-read check on one get_plan reply: meta
// present, seq never moving backwards on the connection, and a payload
// whose flow count and rate sum agree with its meta and total.
func checkPlanReply(resp *ctrl.Response, lastSeq *int64) error {
	if resp.Meta == nil {
		return errors.New("reply without meta")
	}
	if resp.Meta.Seq < *lastSeq {
		return fmt.Errorf("plan seq went backwards: %d after %d", resp.Meta.Seq, *lastSeq)
	}
	*lastSeq = resp.Meta.Seq
	var sf wire.StateFile
	if err := json.Unmarshal(resp.Plan, &sf); err != nil {
		return fmt.Errorf("bad plan payload: %v", err)
	}
	if len(sf.Flows) != resp.Meta.Flows {
		return fmt.Errorf("torn plan: meta says %d flows, payload has %d", resp.Meta.Flows, len(sf.Flows))
	}
	var sum float64
	for _, fl := range sf.Flows {
		sum += fl.Rate
	}
	if math.Abs(sum-sf.TotalRate) > 1e-6+1e-9*math.Abs(sum) || sf.TotalRate != resp.Meta.TotalRate {
		return fmt.Errorf("torn plan: flow rates sum to %g, total says %g, meta says %g", sum, sf.TotalRate, resp.Meta.TotalRate)
	}
	return nil
}

func runCtrlChurn(cfg runConfig) (*report, error) {
	return runChurn(cfg, faults.SolverFaultModel{})
}

// runChurn drives the rig: one connection sends churnUpdates(window)
// updates in a closed loop and waits for each one's plan to be served and
// certified; a second connection reads the plan in an open loop for the
// measuring time. Both counts depend on --seconds alone, so a run's
// attempted and failed are the same for a seed every time. Injected
// solver faults exist for the benchmark's own tests.
func runChurn(cfg runConfig, solverFaults faults.SolverFaultModel) (*report, error) {
	rig, setups, err := repeatSetup(cfg, func(op, root int64) (*churnRig, error) {
		return setupChurn(cfg, op, root, solverFaults)
	}, (*churnRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	addr := rig.srv.Addr()
	cl, err := ctrl.Dial(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	rd, err := ctrl.Dial(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	_, routes, err := cl.GetRoutes()
	if err != nil {
		return nil, err
	}
	gen := newChurnGen(routes, rand.New(rand.NewSource(cfg.seed)))
	var sh *shadow
	if cfg.tr.on {
		if sh, err = newShadow(cfg, rig, cl); err != nil {
			return nil, err
		}
	}

	rep := newReport()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	end := start.Add(cfg.window)
	var reader readerResult
	var torn []error // replies the torn-read check rejected
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastSeq := int64(-1)
		reader = openLoop(start, end, churnReadEvery, func() error {
			resp, err := rd.Query(ctrl.QueryPlan)
			if err != nil {
				return err
			}
			if err := checkPlanReply(resp, &lastSeq); err != nil {
				torn = append(torn, err)
			}
			return nil
		})
	}()

	var ops []churnOp
	var shadowErr error
	last := rig.boot
	n := churnUpdates(cfg.window)
	for i := 0; i < n && shadowErr == nil; i++ {
		if time.Since(start) > churnMaxRun {
			for ; i < n; i++ {
				rep.attempted++
				rep.fail("update %d: not sent, the run passed %v", i, churnMaxRun)
			}
			break
		}
		u := gen.next()
		op, next, err := closedLoopUpdate(cl, rig.c, u, last)
		rep.attempted++
		var wrong wrongError
		switch {
		case errors.As(err, &wrong):
			rep.wrongOutput("update %d (%s): %v", i, u.Op, err)
		case err != nil:
			rep.fail("update %d (%s): %v", i, u.Op, err)
		}
		if next != nil {
			last = *next
		}
		if op == nil {
			continue
		}
		ops = append(ops, *op)
		if sh != nil {
			shadowErr = sh.observe(cfg, u)
		}
	}
	wall := time.Since(start)
	wg.Wait()
	if shadowErr != nil {
		return nil, shadowErr
	}
	runtime.ReadMemStats(&m1)
	final, err := cl.Stats()
	if err != nil {
		return nil, err
	}
	rep.attempted += len(reader.lat)
	for _, err := range reader.failures {
		rep.fail("get_plan: %v", err)
	}
	for _, err := range torn {
		rep.wrongOutput("get_plan: %v", err)
	}
	if len(ops) == 0 {
		return nil, errors.New("no update completed")
	}
	churnMetrics(cfg, rep, setups, ops, reader, wall, m1.TotalAlloc-m0.TotalAlloc, rig.boot, *final)
	if sh != nil {
		sh.metrics(cfg, rep)
	}
	return rep, nil
}

// churnUpdates is the number of updates a run with the given measuring
// time sends: whole blocks, at least one.
func churnUpdates(window time.Duration) int {
	blocks := int(math.Ceil(window.Seconds() * churnUpdatesPerSecond / churnBlock))
	if blocks < 1 {
		blocks = 1
	}
	return blocks * churnBlock
}

// wrongError marks a served output that contradicts an earlier one
// although the controller reported no failure.
type wrongError struct{ error }

// closedLoopUpdate sends u over the wire, then polls the controller's
// stats in process until the served seq and cert_runs have both advanced.
// (Polling over the wire would cost the solve a share of the CPU it
// needs; the served seq is the same atomic plan pointer get_plan reads.)
// It returns the timed op (nil if the update never completed), the stats
// seen last, and the reason the update failed if it did: an error, a
// degraded install, a certification failure or (as a wrongError) a seq
// moving backwards.
func closedLoopUpdate(cl *ctrl.Client, c *ctrl.Controller, u *wire.Update, last ctrl.StatsSnapshot) (*churnOp, *ctrl.StatsSnapshot, error) {
	op := &churnOp{kind: u.Op, sent: now()}
	if err := cl.Update(u); err != nil {
		return nil, nil, err
	}
	op.acked = now()
	deadline := op.sent.wall.Add(churnOpTimeout)
	var s ctrl.StatsSnapshot
	for {
		s = c.Stats()
		t := now()
		if s.PlanSeq < last.PlanSeq {
			return nil, &s, wrongError{fmt.Errorf("served seq went backwards: %d after %d", s.PlanSeq, last.PlanSeq)}
		}
		if op.served.wall.IsZero() && s.PlanSeq > last.PlanSeq {
			op.served = t
		}
		if s.CertRuns > last.CertRuns && !op.served.wall.IsZero() {
			op.certified = t
			break
		}
		if t.wall.After(deadline) {
			return nil, &s, fmt.Errorf("no certified plan within %v", churnOpTimeout)
		}
		time.Sleep(churnPoll)
	}
	meta, err := cl.Meta()
	if err != nil {
		return nil, &s, err
	}
	op.solve = meta.SolveTime
	switch {
	case s.DegradedInstalls > last.DegradedInstalls:
		err = fmt.Errorf("degraded install seq %d (%s)", meta.Seq, meta.Degraded)
	case s.CertFailures > last.CertFailures:
		err = fmt.Errorf("plan seq %d failed certification", s.PlanSeq)
	}
	return op, &s, err
}

func churnMetrics(cfg runConfig, rep *report, setups []cost, ops []churnOp, reader readerResult,
	wall time.Duration, alloc uint64, boot, final ctrl.StatsSnapshot) {
	s := samples{setup: setups, wall: wall, alloc: alloc}
	var rttMs, solveMs, pubMs, certLagMs, serveMs, lateMs []float64
	byKind := map[string][]float64{}
	for _, o := range ops {
		served := o.sent.to(o.served)
		s.solve = append(s.solve, cost{wall: o.solve})
		s.served = append(s.served, served)
		s.certified = append(s.certified, o.sent.to(o.certified))
		byKind[o.kind] = append(byKind[o.kind], ms(served.wall))
		rttMs = append(rttMs, ms(o.sent.to(o.acked).wall))
		solveMs = append(solveMs, ms(o.solve))
		pubMs = append(pubMs, ms(served.wall-o.solve))
		certLagMs = append(certLagMs, ms(o.served.to(o.certified).wall))
	}
	for i := range reader.lat {
		serveMs = append(serveMs, ms(reader.lat[i]))
		lateMs = append(lateMs, ms(reader.late[i]))
	}
	commonMetrics(rep, s)
	serve, late := summarize(serveMs), summarize(lateMs)
	rep.detail["serve_ms"] = serve
	rep.detail["reader_late_ms"] = late
	kinds := map[string]dist{}
	for k, xs := range byKind {
		kinds[k] = summarize(xs)
	}
	rep.detail["update_to_serve_ms_by_update"] = kinds

	l := rep.layer
	l["ctrl.update_rtt_ms"] = median(rttMs)
	l["ctrl.solve_ms"] = median(solveMs)
	l["ctrl.publish_lag_ms"] = median(pubMs)
	l["ctrl.cert_lag_ms"] = median(certLagMs)
	l["ctrl.degraded_installs"] = float64(final.DegradedInstalls - boot.DegradedInstalls)
	l["ctrl.relayouts"] = float64(final.Relayouts - boot.Relayouts)
	l["ctrl.cert_skipped"] = float64(final.CertSkipped - boot.CertSkipped)
	l["ctrl.cert_failures"] = float64(final.CertFailures - boot.CertFailures)
	l["ctrl.plans_per_update"] = float64(final.PlanSeq-boot.PlanSeq) / float64(len(ops))
	l["serve_ms.p50"] = serve.P50
	l["serve_ms.p90"] = serve.P90
	l["ctrl.reader_late_ms.p90"] = late.P90
	l["tunnel.layout_s"] = median(selfByName(cfg.tr.spans, "tunnel.layout", nil)) / 1e9
	l["sim.calibrate_s"] = median(selfByName(cfg.tr.spans, "sim.calibrate", nil)) / 1e9
	rep.detail["ctrl"] = map[string]float64{
		"cert_failures": l["ctrl.cert_failures"], "degraded_installs": l["ctrl.degraded_installs"],
		"plans_per_update": l["ctrl.plans_per_update"], "update_rtt_ms": l["ctrl.update_rtt_ms"],
		"solve_ms": l["ctrl.solve_ms"], "publish_lag_ms": l["ctrl.publish_lag_ms"], "cert_lag_ms": l["ctrl.cert_lag_ms"],
	}
}

// shadow gives a traced ctrl-churn run the layer data the controller
// does not expose: after each update completes it re-encodes and
// re-certifies the served plan, and replays the same input through its
// own core.Session with the controller's options (core.Stats are not
// part of the wire protocol). It runs between updates, so it never sits
// inside a timed update, though it does share the CPU with the reader.
type shadow struct {
	rig   *churnRig
	cl    *ctrl.Client
	sess  *core.Session
	prev  *core.State
	down  map[topology.LinkID]bool
	stats []*core.Stats
	certs []*check.Certificate
	bytes []float64
	ops   map[int64]bool
}

func newShadow(cfg runConfig, rig *churnRig, cl *ctrl.Client) (*shadow, error) {
	sh := &shadow{
		rig: rig, cl: cl, down: map[topology.LinkID]bool{}, ops: map[int64]bool{},
		sess: core.NewSolver(rig.net, rig.set, cliOptions()).NewSession(),
	}
	st, dem, _, err := sh.served()
	if err != nil {
		return nil, err
	}
	// Bring the session to the controller's state: it solved the boot
	// plan before the first update.
	if _, _, err := sh.sess.Solve(core.Input{Demands: dem, Prot: churnProt, Prev: core.NewState()}); err != nil {
		return nil, fmt.Errorf("shadow boot solve: %w", err)
	}
	sh.prev = st
	return sh, nil
}

// served fetches and resolves the served plan.
func (sh *shadow) served() (*core.State, demand.Matrix, int, error) {
	resp, err := sh.cl.Query(ctrl.QueryPlan)
	if err != nil {
		return nil, nil, 0, err
	}
	var sf wire.StateFile
	if err := json.Unmarshal(resp.Plan, &sf); err != nil {
		return nil, nil, 0, fmt.Errorf("served plan: %w", err)
	}
	st, err := wire.ResolveState(sh.rig.net, sh.rig.set, &sf)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("resolving served plan: %w", err)
	}
	dem := demand.Matrix{}
	for _, fl := range sf.Flows {
		src, _ := sh.rig.net.SwitchByName(fl.Src)
		dst, _ := sh.rig.net.SwitchByName(fl.Dst)
		dem[tunnel.Flow{Src: src, Dst: dst}] = fl.Demand
	}
	return st, dem, len(resp.Plan), nil
}

// observe records one completed update's layer spans.
func (sh *shadow) observe(cfg runConfig, u *wire.Update) error {
	if u.Op == wire.UpdateLink {
		net := sh.rig.net
		src, _ := net.SwitchByName(u.Src)
		dst, _ := net.SwitchByName(u.Dst)
		l := net.FindLink(src, dst)
		if l == topology.None {
			l = net.FindLink(dst, src)
		}
		for _, id := range []topology.LinkID{l, net.Links[l].Twin} {
			if id == topology.None {
				continue
			}
			if *u.Up {
				delete(sh.down, id)
			} else {
				sh.down[id] = true
			}
		}
	}
	st, dem, size, err := sh.served()
	if err != nil {
		return err
	}
	op := cfg.tr.newID()
	sh.ops[op] = true
	sh.bytes = append(sh.bytes, float64(size))
	down := map[topology.LinkID]bool{}
	for l := range sh.down {
		down[l] = true
	}

	t0 := time.Now()
	_, err = json.Marshal(wire.EncodeState(sh.rig.net, sh.rig.set, dem, st))
	t1 := time.Now()
	cfg.tr.add(op, 0, "wire.encode", t0, t1)
	if err != nil {
		return fmt.Errorf("encoding served plan: %w", err)
	}
	cert, err := check.Certify(sh.rig.net, sh.rig.set, st, sh.prev, check.Params{Prot: churnProt, DownLinks: down})
	t2 := time.Now()
	cfg.tr.add(op, 0, "check.certify", t1, t2)
	if err != nil {
		return fmt.Errorf("certifying served plan: %w", err)
	}
	sh.certs = append(sh.certs, cert)
	o := timedSolve(cfg, op, 0, func(in core.Input) (*core.State, *core.Stats, error) {
		in.Prot, in.Prev, in.DownLinks = churnProt, sh.prev, down
		return sh.sess.Solve(in)
	}, dem)
	if o.stats != nil {
		sh.stats = append(sh.stats, o.stats)
	}
	sh.prev = st
	return nil
}

func (sh *shadow) metrics(cfg runConfig, rep *report) {
	solverLayers(rep, sh.stats)
	var cases []float64
	var rejected []string // the first few rejections, for BASELINE.md's account of the defect
	exact, fail := 0, 0
	for _, c := range sh.certs {
		cases = append(cases, float64(c.CasesChecked))
		if c.Exact {
			exact++
		}
		if !c.OK {
			fail++
			if len(rejected) < 3 {
				rejected = append(rejected, c.Summary())
			}
		}
	}
	rep.detail["check_rejections"] = rejected
	spans := cfg.tr.spans
	rep.layer["lp.time_s"] = median(selfByName(spans, "lp", sh.ops)) / 1e9
	rep.layer["core.build_s"] = median(selfByName(spans, "core.build", sh.ops)) / 1e9
	rep.layer["check.certify_ms"] = median(selfByName(spans, "check.certify", sh.ops)) / 1e6
	rep.layer["check.cases"] = median(cases)
	rep.layer["check.exact_frac"] = frac(exact, len(cases))
	rep.layer["check.fail"] = float64(fail)
	rep.layer["wire.plan_bytes"] = median(sh.bytes)
	rep.layer["wire.encode_ms"] = median(selfByName(spans, "wire.encode", sh.ops)) / 1e6
}
