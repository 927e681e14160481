package check

import (
	"math"
	"sort"

	"ffc/internal/core"
	"ffc/internal/topology"
)

// exactData enumerates every combination of ≤ ke active physical-link
// failures × ≤ kv active switch failures and evaluates the rescaled loads.
// Dominance covers the rest of the space: failing a link no positive-weight
// tunnel uses changes nothing (a zero-weight tunnel's death doesn't alter
// the surviving-weight total), and failing a switch that is only ever a
// flow endpoint removes those flows' load from every link without shifting
// anyone else's, so any combination containing inert elements behaves
// exactly like its active-only projection — which is enumerated.
func (c *checker) exactData() searchResult {
	res := searchResult{slack: math.Inf(1), slackLink: -1}
	physSel := make([]int, 0, c.p.Prot.Ke)
	swSel := make([]int, 0, c.p.Prot.Kv)

	combosUpTo(len(c.activeP), c.p.Prot.Ke, func(ps []int) bool {
		physSel = physSel[:0]
		for _, i := range ps {
			c.downP[c.activeP[i]] = true
			physSel = append(physSel, c.activeP[i])
		}
		cont := combosUpTo(len(c.activeS), c.p.Prot.Kv, func(ss []int) bool {
			swSel = swSel[:0]
			for _, i := range ss {
				c.downS[c.activeS[i]] = true
				swSel = append(swSel, c.activeS[i])
			}
			cr := c.evalData(c.downP, c.downS)
			for _, i := range ss {
				c.downS[c.activeS[i]] = false
			}
			return c.note(&res, cr, physSel, swSel)
		})
		for _, i := range ps {
			c.downP[c.activeP[i]] = false
		}
		return cont
	})
	return res
}

// combosUpTo calls fn with every index combination of size 0..k over
// [0, n), smallest size first, lexicographic within a size. fn returns
// false to stop; combosUpTo then returns false. The slice passed to fn is
// reused — copy it to keep it.
func combosUpTo(n, k int, fn func([]int) bool) bool {
	if k > n {
		k = n
	}
	sel := make([]int, 0, k)
	var rec func(start, size int) bool
	rec = func(start, size int) bool {
		if len(sel) == size {
			return fn(sel)
		}
		for i := start; i <= n-(size-len(sel)); i++ {
			sel = append(sel, i)
			if !rec(i+1, size) {
				return false
			}
			sel = sel[:len(sel)-1]
		}
		return true
	}
	for size := 0; size <= k; size++ {
		if !rec(0, size) {
			return false
		}
	}
	return true
}

// controlResult is the control-plane certification outcome.
type controlResult struct {
	// cases counts evaluated links; sources is the number of distinct
	// ingresses a stale set can be drawn from.
	cases   int64
	sources int
	// slack is min(cap − worst-case load) over evaluated links.
	slack      float64
	slackLink  topology.LinkID
	slackStale []topology.SwitchID
	worst      *Violation
}

// certifyControl verifies the control-plane guarantee exactly without
// enumerating stale sets: per flow and tunnel the adversary's best stale
// behavior is max(old behavior, new behavior) under the rate-limiter mode
// (the same upper bound the paper's Eqn 14 budget covers), so per link the
// worst choice of ≤ kc stale ingresses is simply the kc largest positive
// (stale − updated) contribution deltas. That top-kc selection equals the
// maximum over all C(n, ≤kc) stale sets — dominance collapses the
// enumeration entirely.
func (c *checker) certifyControl(prev *core.State) controlResult {
	res := controlResult{slack: math.Inf(1), slackLink: -1}

	type contrib struct {
		newL, staleL float64
	}
	perLink := make(map[topology.LinkID]map[topology.SwitchID]*contrib)
	srcSeen := map[topology.SwitchID]bool{}

	for _, f := range c.set.All() {
		if c.swOf[f.Src] < 0 || c.swOf[f.Dst] < 0 {
			continue // an endpoint is already down: nothing is sent
		}
		srcSeen[f.Src] = true
		alloc := c.st.Alloc[f]
		oldAlloc := prev.Alloc[f]
		oldW := weightsOf(oldAlloc)
		newW := weightsOf(alloc)
		for _, t := range c.set.Tunnels(f) {
			if c.tunBaseDead(t.Links, t.Switches) {
				continue
			}
			a := at(alloc, t.Index)
			var stale float64
			switch c.p.RateLimiter {
			case core.LimitersOrdered:
				stale = math.Max(at(oldAlloc, t.Index), a)
			case core.LimitersIndependent:
				stale = math.Max(math.Max(at(oldAlloc, t.Index), a),
					math.Max(at(oldW, t.Index)*c.st.Rate[f],
						at(newW, t.Index)*prev.Rate[f]))
			default: // LimitersSynced: old weights split the new rate
				stale = math.Max(at(oldW, t.Index)*c.st.Rate[f], a)
			}
			if a == 0 && stale == 0 {
				continue
			}
			for _, l := range t.Links {
				m := perLink[l]
				if m == nil {
					m = map[topology.SwitchID]*contrib{}
					perLink[l] = m
				}
				ct := m[f.Src]
				if ct == nil {
					ct = &contrib{}
					m[f.Src] = ct
				}
				ct.newL += a
				ct.staleL += stale
			}
		}
	}
	res.sources = len(srcSeen)

	// Deterministic link order so ties resolve the same way every run.
	links := make([]topology.LinkID, 0, len(perLink))
	for l := range perLink {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })

	type delta struct {
		src topology.SwitchID
		d   float64
	}
	var srcs []topology.SwitchID
	for _, l := range links {
		res.cases++
		// Sum in source order: a map-order float sum would make the
		// certificate differ from call to call in its last bits.
		srcs = srcs[:0]
		for src := range perLink[l] {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		var base float64
		var deltas []delta
		for _, src := range srcs {
			ct := perLink[l][src]
			base += ct.newL
			if d := ct.staleL - ct.newL; d > 0 {
				deltas = append(deltas, delta{src, d})
			}
		}
		sort.Slice(deltas, func(i, j int) bool {
			if deltas[i].d != deltas[j].d {
				return deltas[i].d > deltas[j].d
			}
			return deltas[i].src < deltas[j].src
		})
		load := base
		var stale []topology.SwitchID
		for i := 0; i < len(deltas) && i < c.p.Prot.Kc; i++ {
			load += deltas[i].d
			stale = append(stale, deltas[i].src)
		}
		cp := c.cap[l]
		if s := cp - load; s < res.slack {
			res.slack = s
			res.slackLink = l
			res.slackStale = sortedStale(stale)
		}
		if overThreshold(load, cp) {
			if over := load - cp; res.worst == nil || over > res.worst.Over {
				res.worst = &Violation{
					Plane:    "control",
					Link:     l,
					LinkName: c.linkName(l),
					Load:     load,
					Capacity: cp,
					Over:     over,
					Faults:   c.faultSet(nil, nil, sortedStale(stale)),
				}
			}
		}
	}
	return res
}

// tunBaseDead reports whether a tunnel crosses a pre-down element.
func (c *checker) tunBaseDead(links []topology.LinkID, switches []topology.SwitchID) bool {
	for _, l := range links {
		if c.physOf[l] < 0 {
			return true
		}
	}
	for _, v := range switches {
		if c.swOf[v] < 0 {
			return true
		}
	}
	return false
}
