package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between the closest ranks, the definition numpy and
// Python's statistics module ("inclusive") use. xs need not be sorted and
// is not modified. It returns NaN for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// dist is a sample summary: a percentile is only as good as the number of
// samples beyond it, so both travel together.
type dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	Max float64 `json:"max"`
	// Beyond90 counts samples strictly above P90.
	Beyond90 int `json:"beyond_p90"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs), P50: quantile(xs, 0.5), P90: quantile(xs, 0.9), Max: math.NaN()}
	for _, x := range xs {
		if math.IsNaN(d.Max) || x > d.Max {
			d.Max = x
		}
		if x > d.P90 {
			d.Beyond90++
		}
	}
	return d
}

// ms and sec convert durations to the report's float units with all their
// digits.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// frac is n/d, 0 for an empty base.
func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// relClose reports whether got matches want within rel relative to
// max(1, |want|) — the tolerance every planner in the repository uses.
func relClose(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(1, math.Abs(want))
}

// stamp is a point in both wall-clock time and the process's CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// now reads both clocks. The CPU clock is the user+system time of the
// whole process (every goroutine, the garbage collector included), which
// the kernel charges only while the process runs: time the hypervisor
// takes from the virtual CPU (steal) is not in it.
func now() stamp {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return stamp{time.Now(), time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// cost is the wall-clock and CPU time between two stamps.
type cost struct{ wall, cpu time.Duration }

func (a stamp) to(b stamp) cost { return cost{b.wall.Sub(a.wall), b.cpu - a.cpu} }

func (c cost) plus(d cost) cost { return cost{c.wall + d.wall, c.cpu + d.cpu} }
