package core

import (
	"fmt"
	"sort"

	"ffc/internal/lp"
	"ffc/internal/sortnet"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// DemandUncertainty extends FFC to demand faults, the future-work direction
// the paper sketches in §9: in networks without ingress rate control
// (MinMLU-style TE), actual flow rates can exceed predictions. Analogous to
// treating a mispredicted flow as a faulty rate limiter, the TE is made
// robust to ANY combination of up to Count flows each sending up to
// Factor × its predicted demand: since an uncontrolled flow's link load
// scales proportionally with its rate, the extra load a mispredicted flow
// puts on link e is (Factor−1) × its planned load there, and the worst case
// over all misprediction sets is a bounded M-sum — encoded with the same
// partial sorting networks as §4.4.
type DemandUncertainty struct {
	// Count is the number of simultaneously mispredicted flows tolerated.
	Count int
	// Factor bounds each mispredicted flow's rate as Factor × predicted
	// (must be > 1 to have any effect).
	Factor float64
}

// demandFFC emits the per-link robustness constraints. It must run after
// capacityConstraints (links are re-bounded, not reused).
func (b *builder) demandFFC(u DemandUncertainty) error {
	if u.Count <= 0 || u.Factor <= 1 {
		return nil
	}
	if b.s.Opts.Objective != MinMLU {
		return fmt.Errorf("core: demand-uncertainty FFC applies to networks without rate control (MinMLU objective)")
	}
	over := u.Factor - 1
	for _, l := range b.s.Net.Links {
		// Per-flow planned load on this link.
		byFlow := map[tunnel.Flow]*lp.Expr{}
		for _, ft := range b.s.incidence[l.ID] {
			if _, ok := b.bVar[ft.flow]; !ok {
				continue
			}
			if !b.alive[ft.flow][ft.idx] {
				continue
			}
			e := byFlow[ft.flow]
			if e == nil {
				e = lp.NewExpr()
				byFlow[ft.flow] = e
			}
			if b.mice[ft.flow] {
				e.Add(b.miceCoef[ft.flow], b.bVar[ft.flow])
			} else {
				e.Add(1, b.aVar[ft.flow][ft.idx])
			}
		}
		if len(byFlow) == 0 {
			continue
		}
		var flows []tunnel.Flow
		for f := range byFlow {
			flows = append(flows, f)
		}
		sort.Slice(flows, func(i, j int) bool {
			if flows[i].Src != flows[j].Src {
				return flows[i].Src < flows[j].Src
			}
			return flows[i].Dst < flows[j].Dst
		})
		exprs := make([]*lp.Expr, len(flows))
		for i, f := range flows {
			exprs[i] = lp.NewExpr().AddExpr(over, byFlow[f])
		}
		M := u.Count
		if M > len(exprs) {
			M = len(exprs)
		}
		name := fmt.Sprintf("du[e%d]", l.ID)
		var res sortnet.Result
		if b.s.Opts.Encoding == Compact {
			res = sortnet.TopKCompact(b.model, exprs, M, name)
		} else {
			res = sortnet.LargestSum(b.model, exprs, M, name)
		}
		b.encVars += res.Vars
		b.encCons += res.Constraints + 1
		// usage + worst-case overage ≤ ce · u_fault (reusing the §5.4
		// fault-MLU variable so operators can weight the robust case).
		load := b.usageExpr(l.ID).AddExpr(1, res.Sum)
		b.addCPConstraint(b.model, name, l.ID, load, b.s.capacity(b.in, l.ID))
	}
	return nil
}

// VerifyDemandUncertainty enumerates every set of up to count flows sending
// factor × their planned rate (everyone else at plan) and returns the worst
// overload, or nil when the state is robust. Exponential in count.
//
// Like VerifyDataPlane, this is a serial reference oracle that no
// production code calls; internal/check does not cover demand faults yet.
func VerifyDemandUncertainty(net *topology.Network, tun *tunnel.Set, st *State,
	count int, factor float64, capacity map[topology.LinkID]float64) *Violation {

	flows := make([]tunnel.Flow, 0, len(st.Rate))
	for f := range st.Rate {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	// Base loads plus each flow's per-link load.
	base := map[topology.LinkID]float64{}
	perFlow := make([]map[topology.LinkID]float64, len(flows))
	for i, f := range flows {
		perFlow[i] = map[topology.LinkID]float64{}
		w := st.Weights(f)
		for _, t := range tun.Tunnels(f) {
			share := st.Rate[f] * w[t.Index]
			if share == 0 {
				continue
			}
			for _, l := range t.Links {
				base[l] += share
				perFlow[i][l] += share
			}
		}
	}
	var worst *Violation
	forEachComboUpTo(len(flows), count, func(sel []int) {
		overdriven := make([]tunnel.Flow, len(sel))
		for i, fi := range sel {
			overdriven[i] = flows[fi]
		}
		for _, l := range net.Links {
			load := base[l.ID]
			for _, i := range sel {
				load += (factor - 1) * perFlow[i][l.ID]
			}
			c := l.Capacity
			if capacity != nil {
				if o, ok := capacity[l.ID]; ok {
					c = o
				}
			}
			if overThreshold(load, c) {
				if over := load - c; worst == nil || over > worst.Over {
					worst = &Violation{Case: fmt.Sprintf("overdriven=%v", overdriven), Link: l.ID, Over: over}
				}
			}
		}
	})
	return worst
}
