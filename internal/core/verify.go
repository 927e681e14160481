package core

import (
	"fmt"
	"math"
	"sort"

	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Violation describes one fault case that overloads a link.
type Violation struct {
	Case string
	Link topology.LinkID
	// Over is load − capacity (positive).
	Over float64
}

// overThreshold is the single overload-tolerance comparison shared by every
// verifier and planner: load counts as exceeding cap only beyond
// 1e-6·max(1, cap), so solver round-off on large-capacity links doesn't
// trip false violations (an absolute cutoff would).
func overThreshold(load, cap float64) bool {
	return load-cap > 1e-6*math.Max(1, cap)
}

// VerifyDataPlane enumerates every fault case with up to ke physical link
// failures and kv switch failures, applies ingress rescaling, and returns
// the worst overload found (nil if the state is congestion-free in all
// cases — the guarantee of Lemma 1). Ties keep the first case in
// enumeration order. Exponential in (ke, kv).
//
// This is the serial brute-force reference oracle: no production code
// calls it. Production plans are certified by internal/check, whose
// differential tests (and core's own tests) compare against it.
func VerifyDataPlane(net *topology.Network, tun *tunnel.Set, st *State, ke, kv int, capacity map[topology.LinkID]float64) *Violation {
	links := physicalLinks(net)
	switches := make([]topology.SwitchID, 0, len(net.Switches))
	for _, sw := range net.Switches {
		switches = append(switches, sw.ID)
	}
	down := map[topology.LinkID]bool{}
	loads := make([]float64, len(net.Links))
	var worst *Violation
	forEachComboUpTo(len(links), ke, func(li []int) {
		clear(down)
		linkIDs := make([]topology.LinkID, len(li))
		for i, idx := range li {
			linkIDs[i] = links[idx]
			down[links[idx]] = true
			if tw := net.Links[links[idx]].Twin; tw != topology.None {
				down[tw] = true
			}
		}
		forEachComboUpTo(len(switches), kv, func(si []int) {
			downSw := make(map[topology.SwitchID]bool, len(si))
			swIDs := make([]topology.SwitchID, len(si))
			for i, idx := range si {
				swIDs[i] = switches[idx]
				downSw[switches[idx]] = true
			}
			v := checkRescaledLoads(net, tun, st, down, downSw, capacity, loads)
			if v != nil && (worst == nil || v.Over > worst.Over) {
				v.Case = fmt.Sprintf("links=%v switches=%v", linkIDs, swIDs)
				worst = v
			}
		})
	})
	return worst
}

// checkRescaledLoads computes per-link load after every ingress rescales
// around the fault sets, skipping links that are themselves down, and
// returns the worst overload (nil if none; ties go to the lowest link ID).
// Flows whose ingress or egress switch failed send nothing. loads is the
// caller's per-link scratch buffer (cleared here), so repeated case checks
// don't reallocate it.
func checkRescaledLoads(net *topology.Network, tun *tunnel.Set, st *State,
	down map[topology.LinkID]bool, downSw map[topology.SwitchID]bool,
	capacity map[topology.LinkID]float64, loads []float64) *Violation {

	clear(loads)
	for _, f := range tun.All() {
		rate := st.Rate[f]
		if rate == 0 || downSw[f.Src] || downSw[f.Dst] {
			continue
		}
		w := st.Weights(f)
		tl := tun.Rescale(f, w, rate, down, downSw)
		for _, t := range tun.Tunnels(f) {
			if tl[t.Index] == 0 {
				continue
			}
			for _, l := range t.Links {
				loads[l] += tl[t.Index]
			}
		}
	}
	var worst *Violation
	for i, load := range loads {
		l := topology.LinkID(i)
		if load == 0 || down[l] {
			continue
		}
		c := net.Links[l].Capacity
		if capacity != nil {
			if o, ok := capacity[l]; ok {
				c = o
			}
		}
		if overThreshold(load, c) {
			if over := load - c; worst == nil || over > worst.Over {
				worst = &Violation{Link: l, Over: over}
			}
		}
	}
	return worst
}

// VerifyControlPlane enumerates every set of up to kc ingress switches whose
// configuration update fails. A failed switch keeps old tunnel-splitting
// weights per the rate-limiter mode; per-flow the adversary picks whichever
// of old/new behavior loads each link more (a sound upper bound on any
// realizable combination). Returns the worst overload, or nil.
//
// Like VerifyDataPlane, this is a serial reference oracle that no
// production code calls.
func VerifyControlPlane(net *topology.Network, tun *tunnel.Set, newSt, oldSt *State,
	kc int, mode RateLimiterMode, capacity map[topology.LinkID]float64) *Violation {

	// Per-link per-source contributions under "updated" and "stale".
	type key struct {
		link topology.LinkID
		src  topology.SwitchID
	}
	newLoad := map[key]float64{}
	staleLoad := map[key]float64{}
	srcSet := map[topology.SwitchID]bool{}

	for _, f := range tun.All() {
		srcSet[f.Src] = true
		alloc := newSt.Alloc[f]
		oldW := tunnel.Weights(oldSt.Alloc[f])
		newW := newSt.Weights(f)
		for _, t := range tun.Tunnels(f) {
			a := idx(alloc, t.Index)
			var stale float64
			switch mode {
			case LimitersOrdered:
				stale = math.Max(idx(oldSt.Alloc[f], t.Index), a)
			case LimitersIndependent:
				// Any mix of {old,new} weights × {old,new} rate.
				stale = math.Max(math.Max(idx(oldSt.Alloc[f], t.Index), a),
					math.Max(idx(oldW, t.Index)*newSt.Rate[f],
						idx(newW, t.Index)*oldSt.Rate[f]))
			default: // LimitersSynced: old weights, new rate
				stale = math.Max(idx(oldW, t.Index)*newSt.Rate[f], a)
			}
			for _, l := range t.Links {
				newLoad[key{l, f.Src}] += a
				staleLoad[key{l, f.Src}] += stale
			}
		}
	}
	var srcs []topology.SwitchID
	for v := range srcSet {
		srcs = append(srcs, v)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })

	var worst *Violation
	forEachComboUpTo(len(srcs), kc, func(sel []int) {
		failed := make(map[topology.SwitchID]bool, len(sel))
		failedIDs := make([]topology.SwitchID, len(sel))
		for i, idx := range sel {
			failedIDs[i] = srcs[idx]
			failed[srcs[idx]] = true
		}
		for _, l := range net.Links {
			var load float64
			for _, v := range srcs {
				if failed[v] {
					load += staleLoad[key{l.ID, v}]
				} else {
					load += newLoad[key{l.ID, v}]
				}
			}
			c := l.Capacity
			if capacity != nil {
				if o, ok := capacity[l.ID]; ok {
					c = o
				}
			}
			if overThreshold(load, c) {
				if over := load - c; worst == nil || over > worst.Over {
					worst = &Violation{Case: fmt.Sprintf("failed=%v link=%d", failedIDs, l.ID), Link: l.ID, Over: over}
				}
			}
		}
	})
	return worst
}

func physicalLinks(net *topology.Network) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range net.Links {
		if l.Twin == topology.None || l.ID < l.Twin {
			out = append(out, l.ID)
		}
	}
	return out
}

// forEachComboUpTo calls fn with every index combination of size 0..k.
func forEachComboUpTo(n, k int, fn func([]int)) {
	if k > n {
		k = n
	}
	for size := 0; size <= k; size++ {
		forEachCombo(n, size, fn)
	}
}
