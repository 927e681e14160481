package core

import (
	"math/rand"
	"sync"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

func TestOverThreshold(t *testing.T) {
	// The slack is relative on large capacities: 1e-5 of round-off on a
	// 1e6-capacity link is not a violation...
	if overThreshold(1e6+1e-5, 1e6) {
		t.Fatal("1e-5 over a 1e6 capacity must be within tolerance")
	}
	// ...but the same absolute excess on a unit-capacity link is.
	if !overThreshold(1+1e-5, 1) {
		t.Fatal("1e-5 over a unit capacity must be a violation")
	}
	if overThreshold(1+1e-7, 1) {
		t.Fatal("1e-7 over a unit capacity must be within tolerance")
	}
	if overThreshold(0.5, 1) {
		t.Fatal("under-capacity load flagged")
	}
}

// snetStates solves plain-TE S-Net states once for the verifier
// benchmark.
var snetOnce sync.Once
var snetFx struct {
	net    *topology.Network
	tun    *tunnel.Set
	states []*State
	err    error
}

func snetStates(tb testing.TB) (*topology.Network, *tunnel.Set, []*State) {
	tb.Helper()
	snetOnce.Do(func() {
		net := topology.SNet()
		rng := rand.New(rand.NewSource(7))
		series := demand.Generate(net, demand.Config{Intervals: 2}, rng)
		var flows []tunnel.Flow
		for f := range series[0] {
			flows = append(flows, f)
		}
		tun := tunnel.Layout(net, flows, tunnel.LayoutConfig{})
		solver := NewSolver(net, tun, Options{})
		states := make([]*State, len(series))
		for i, m := range series {
			st, _, err := solver.Solve(Input{Demands: m})
			if err != nil {
				snetFx.err = err
				return
			}
			states[i] = st
		}
		snetFx.net, snetFx.tun, snetFx.states = net, tun, states
	})
	if snetFx.err != nil {
		tb.Fatalf("solving S-Net fixture: %v", snetFx.err)
	}
	return snetFx.net, snetFx.tun, snetFx.states
}

// TestVerifyDataPlaneTieIsLowestLink: when two links are overloaded by the
// same amount, the oracle reports the lower link ID on every call — the
// scan over links must not depend on map iteration order.
func TestVerifyDataPlaneTieIsLowestLink(t *testing.T) {
	net := topology.NewNetwork("tie")
	a := net.AddSwitch("a", "a", 0, 0)
	b := net.AddSwitch("b", "b", 0, 1)
	c := net.AddSwitch("c", "c", 1, 0)
	d := net.AddSwitch("d", "d", 1, 1)
	net.AddDuplex(a, b, 1)
	net.AddDuplex(c, d, 1)
	fab, fcd := tunnel.Flow{Src: a, Dst: b}, tunnel.Flow{Src: c, Dst: d}
	tun := tunnel.NewSet(net)
	tun.Add(fab, &tunnel.Tunnel{Flow: fab, Switches: []topology.SwitchID{a, b}, Links: []topology.LinkID{net.FindLink(a, b)}})
	tun.Add(fcd, &tunnel.Tunnel{Flow: fcd, Switches: []topology.SwitchID{c, d}, Links: []topology.LinkID{net.FindLink(c, d)}})
	st := NewState()
	st.Rate[fab], st.Alloc[fab] = 2, []float64{2}
	st.Rate[fcd], st.Alloc[fcd] = 2, []float64{2}

	want := net.FindLink(a, b)
	if other := net.FindLink(c, d); other <= want {
		t.Fatalf("fixture: link ids %d, %d not ordered", want, other)
	}
	for i := 0; i < 200; i++ {
		v := VerifyDataPlane(net, tun, st, 0, 0, nil)
		if v == nil || v.Over != 1 {
			t.Fatalf("call %d: violation %+v, want over 1", i, v)
		}
		if v.Link != want {
			t.Fatalf("call %d: tie reported on link %d, want lowest id %d", i, v.Link, want)
		}
	}
}

// BenchmarkVerifyDataPlaneSNet times the serial reference oracle on S-Net
// at ke=2 (≈3900 fault cases). The sub-benchmark keeps the name "serial"
// so the committed BENCH_*.json baselines keep gating it.
func BenchmarkVerifyDataPlaneSNet(b *testing.B) {
	net, tun, sts := snetStates(b)
	st := sts[0]
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			VerifyDataPlane(net, tun, st, 2, 0, nil)
		}
	})
}
