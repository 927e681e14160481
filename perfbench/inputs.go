package main

import (
	"math"
	"math/rand"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// cliOptions are the solver options ffcd and ffcte run with by default.
func cliOptions() core.Options {
	return core.Options{Encoding: core.SortNet, MiceFraction: 0.01, OldLoadSkip: 1e-5, BuildWorkers: -1}
}

// cliLayout is the CLIs' default tunnel layout: 6 tunnels per flow, p=1,
// q=3.
var cliLayout = tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3}

// noiseless stands in for a zero noise σ, which demand.Config reads as
// "use the default".
const noiseless = 1e-12

// seededSeries returns a gravity demand series over net whose structure
// (site masses and diurnal phases) comes from demand.Generate under the
// structure seed and whose lognormal noise (σ per flow and interval, the
// generator's own noise model) comes from rng.
func seededSeries(net *topology.Network, intervals int, structure int64, sigma float64, rng *rand.Rand) demand.Series {
	series := demand.Generate(net, demand.Config{Intervals: intervals, NoiseSigma: noiseless},
		rand.New(rand.NewSource(structure)))
	for _, m := range series {
		for _, f := range m.Flows() {
			m[f] *= math.Exp(sigma * rng.NormFloat64())
		}
	}
	return series
}
