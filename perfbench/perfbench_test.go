package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"ffc/internal/core"
	"ffc/internal/ctrl"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}, {0.25, 3.25},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestSummarizeCountsSamplesBeyondP90(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50.5 || math.Abs(d.P90-90.1) > 1e-9 || d.Max != 100 {
		t.Fatalf("summary %+v", d)
	}
	if d.Beyond90 != 10 {
		t.Fatalf("beyond_p90 = %d, want 10", d.Beyond90)
	}
	if d := summarize([]float64{7}); d.N != 1 || d.P50 != 7 || d.P90 != 7 || d.Beyond90 != 0 {
		t.Fatalf("one-sample summary %+v", d)
	}
}

func TestCommonMetricsReportPercentilesWithCounts(t *testing.T) {
	rep := newReport()
	rep.attempted = 8
	rep.fail("one")
	rep.fail("two")
	ms := time.Millisecond
	c := func(wall, cpu time.Duration) cost { return cost{wall: wall, cpu: cpu} }
	s := samples{setup: []cost{c(3000*ms, 300*ms), c(1000*ms, 100*ms), c(2000*ms, 200*ms)}}
	for i := time.Duration(1); i <= 4; i++ {
		s.solve = append(s.solve, c(i*ms, 0))
		s.served = append(s.served, c(10*i*ms, i*ms))
		s.certified = append(s.certified, c(100*i*ms, 10*i*ms))
	}
	s.wall, s.alloc = 2*time.Second, 8e6
	commonMetrics(rep, s)
	for name, want := range map[string]float64{
		"setup_s": 0.2, "update_to_serve_cpu_ms.p50": 2.5, "update_to_certified_cpu_ms.p50": 25,
		"update_to_certified_cpu_ms.p90": 37, "alloc_mb_per_op": 2,
	} {
		if got := rep.e2e[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"setup_wall_s": 2, "solve_s.p50": 0.0025, "update_to_serve_ms.p50": 25, "update_to_serve_ms.p90": 37,
		"update_to_certified_ms.p90": 370, "updates_per_s": 2, "failed_frac": 0.25,
	} {
		if got := rep.layer[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if d := rep.detail["update_to_certified_cpu_ms"].(dist); d.N != 4 || d.Beyond90 != 1 {
		t.Errorf("certified CPU summary %+v: want n=4 with 1 sample beyond p90", d)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Op: 1, ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},  // overlaps a
		{Op: 1, ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past root
		{Op: 1, ID: 5, Parent: 2, Name: "d", Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50 * ms, 2: 25 * ms, 3: 20 * ms, 4: 30 * ms, 5: 5 * ms} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	if got := selfByName(spans, "a", map[int64]bool{2: true}); len(got) != 0 {
		t.Errorf("op filter ignored: %v", got)
	}
}

func TestOpenLoopChargesLateness(t *testing.T) {
	every := 10 * time.Millisecond
	start := time.Now()
	calls := 0
	res := openLoop(start, start.Add(6*every), every, func() error {
		calls++
		if calls == 1 {
			time.Sleep(35 * time.Millisecond) // a stall delays the next three calls
		}
		if calls == 6 {
			return errors.New("boom")
		}
		return nil
	})
	if len(res.lat) != 6 || len(res.late) != 6 {
		t.Fatalf("%d samples, %d lateness records; want 6 each", len(res.lat), len(res.late))
	}
	if len(res.failures) != 1 {
		t.Fatalf("%d failures recorded, want 1", len(res.failures))
	}
	if res.lat[0] < 35*time.Millisecond {
		t.Errorf("stalled call latency %v", res.lat[0])
	}
	// Call 1 was due at 10ms but could start only at ≈35ms.
	if res.late[1] < 20*time.Millisecond {
		t.Errorf("call 1 was %v late, want ≥ 20ms", res.late[1])
	}
	for i := range res.lat {
		if res.lat[i] < res.late[i] {
			t.Errorf("call %d: latency %v below its lateness %v (not timed from its due time)", i, res.lat[i], res.late[i])
		}
	}
}

func TestPlanReplyTornReadCheck(t *testing.T) {
	plan := func(total float64, rates ...float64) *ctrl.Response {
		var flows []map[string]interface{}
		for _, r := range rates {
			flows = append(flows, map[string]interface{}{"src": "s1", "dst": "s2", "rate": r})
		}
		blob, _ := json.Marshal(map[string]interface{}{"total_rate": total, "flows": flows})
		return &ctrl.Response{OK: true, Plan: blob, Meta: &ctrl.Meta{Seq: 3, Flows: len(rates), TotalRate: total}}
	}
	last := int64(2)
	if err := checkPlanReply(plan(3, 1, 2), &last); err != nil || last != 3 {
		t.Fatalf("consistent plan rejected: %v (last seq %d)", err, last)
	}
	if err := checkPlanReply(plan(4, 1, 2), &last); err == nil {
		t.Error("rate sum disagreeing with the total accepted")
	}
	last = 5
	if err := checkPlanReply(plan(3, 1, 2), &last); err == nil {
		t.Error("seq moving backwards accepted")
	}
}

func TestChurnUndoesEveryChange(t *testing.T) {
	routes := []wire.StateFlow{
		{Src: "a", Dst: "b", Demand: 4, Tunnels: []wire.TunnelAlloc{{Path: []string{"a", "c", "b"}}}},
		{Src: "b", Dst: "a", Demand: 2, Tunnels: []wire.TunnelAlloc{{Path: []string{"b", "a"}}}},
	}
	g := newChurnGen(routes, rand.New(rand.NewSource(9)))
	links := 0
	for i := 0; i < 20; i++ { // two blocks of ten changes, each undone
		change, undo := g.next(), g.next()
		if change.Op != undo.Op {
			t.Fatalf("change %d (%s) undone by a %s update", i, change.Op, undo.Op)
		}
		switch change.Op {
		case wire.UpdateLink:
			links++
			if *change.Up || !*undo.Up || change.Src != undo.Src || change.Dst != undo.Dst {
				t.Fatalf("link change %d: %+v then %+v", i, change, undo)
			}
		default:
			c, u := change.Demands[0], undo.Demands[0]
			base := map[string]float64{"a>b": 4, "b>a": 2}[c.Src+">"+c.Dst]
			if c.Src != u.Src || c.Dst != u.Dst || u.Demand != base || c.Demand < 0.5*base || c.Demand > 1.5*base {
				t.Fatalf("demand change %d: %+v then %+v (base %v)", i, c, u, base)
			}
		}
	}
	if links != 6 {
		t.Fatalf("%d link downs in two blocks of ten, want 6", links)
	}
}

// tinyEnv is a testbed environment small enough for unit tests.
func tinyEnv(t *testing.T) *snetEnv {
	t.Helper()
	net := topology.Testbed()
	series := demand.Generate(net, demand.Config{Intervals: 1}, rand.New(rand.NewSource(3)))
	tun := tunnel.Layout(net, series[0].Flows(), cliLayout)
	return &snetEnv{net: net, tun: tun, solver: core.NewSolver(net, tun, cliOptions()), scale: 1, series: series}
}

func TestOfflineCheckCountsAMutatedPlan(t *testing.T) {
	env := tinyEnv(t)
	cfg := runConfig{tr: newTracer(false)}
	good := timedSolve(cfg, 1, 0, env.solver.Solve, env.series[0])
	bad := timedSolve(cfg, 2, 0, env.solver.Solve, env.series[0])
	if good.err != nil || bad.err != nil {
		t.Fatal(good.err, bad.err)
	}
	for f, r := range bad.st.Rate { // grant every flow twice its plan
		bad.st.Rate[f] = 2 * r
		for i := range bad.st.Alloc[f] {
			bad.st.Alloc[f][i] *= 2
		}
	}
	bad.key = 1
	rep := newReport()
	if err := checkOffline(cfg, env, []offlineOp{good, bad}, false, rep); err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 2 || rep.failed != 1 || rep.wrong != 1 {
		t.Fatalf("attempted %d failed %d wrong %d; want 2 1 1 (%v)", rep.attempted, rep.failed, rep.wrong, rep.failures)
	}
	rep.e2e = map[string]float64{}
	for _, d := range endToEnd {
		rep.e2e[d.name] = 1
	}
	res, err := buildResult(rep, endToEnd, rep.e2e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("result %+v: a wrong output must make the run incorrect and count as failed", res)
	}
}

func TestOfflineCheckRequiresReplayableSolves(t *testing.T) {
	env := tinyEnv(t)
	cfg := runConfig{tr: newTracer(false)}
	a := timedSolve(cfg, 1, 0, env.solver.Solve, env.series[0])
	b := timedSolve(cfg, 2, 0, env.solver.Solve, env.series[0])
	rep := newReport()
	if err := checkOffline(cfg, env, []offlineOp{a, b}, true, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("two cold solves of one matrix disagree: %v", rep.failures)
	}
	b.stats.Objective = math.Nextafter(b.stats.Objective, 0)
	rep = newReport()
	if err := checkOffline(cfg, env, []offlineOp{a, b}, true, rep); err != nil {
		t.Fatal(err)
	}
	if rep.wrong != 1 {
		t.Fatalf("a re-solve one ulp off passed the replay check (%v)", rep.failures)
	}
}

func TestChurnUpdatesAreWholeBlocksFixedBySeconds(t *testing.T) {
	for _, c := range []struct {
		window time.Duration
		want   int
	}{
		{50 * time.Second, 500},
		{45 * time.Second, 460},
		{time.Second, 20},
		{time.Millisecond, 20},
	} {
		if got := churnUpdates(c.window); got != c.want || got%churnBlock != 0 {
			t.Errorf("churnUpdates(%v) = %d, want %d", c.window, got, c.want)
		}
	}
}

func TestChurnCountsAnInjectedSolverCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the controller for a second")
	}
	cfg := runConfig{seed: 1, window: time.Second, tr: newTracer(false), setups: 1, started: time.Now()}
	// Interval 0 is the boot solve; interval 1 answers the first update.
	model := faults.SolverFaultModel{Force: map[int]faults.SolverFaultKind{1: faults.SolverCrash}}
	rep, err := runChurn(cfg, model)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed < 1 || rep.layer["ctrl.degraded_installs"] != 1 {
		t.Fatalf("failed %d, degraded installs %v: the injected crash was not counted (%v)",
			rep.failed, rep.layer["ctrl.degraded_installs"], rep.failures)
	}
	if !strings.Contains(rep.failures[0], "degraded install") {
		t.Errorf("first failure %q is not the degraded install", rep.failures[0])
	}
	if rep.layer["failed_frac"] <= 0 {
		t.Errorf("failed_frac %v", rep.layer["failed_frac"])
	}
	if rep.wrong != 0 {
		t.Errorf("a failure the controller reported counted as a wrong output: %v", rep.failures)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "snet-cold", "--trace", "2"},
		{"--workload", "snet-cold", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q; want 2 and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metric
// lists in step: every declared metric is printed, with the same unit.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, decl []struct{ Name, Unit string }, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(decl), len(defs))
			return
		}
		for i, d := range defs {
			if decl[i].Name != d.name || decl[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]",
					kind, i, decl[i].Name, decl[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}
