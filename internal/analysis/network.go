package analysis

import (
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/graph"
	"turnup/internal/stats"
)

// DegreeDistribution is Figure 7 for one contract set (created or
// completed): the histogram of raw/inbound/outbound degrees plus power-law
// fits of the tails.
type DegreeDistribution struct {
	Histogram map[graph.DegreeKind]map[int]int
	Max       map[graph.DegreeKind]int
	PowerLaw  map[graph.DegreeKind]*stats.PowerLawFit // nil when unfittable
	Nodes     int
}

// DegreeDist computes Figure 7's distribution for the given contracts.
func DegreeDist(contracts []*forum.Contract) DegreeDistribution {
	n := graph.Build(contracts)
	r := DegreeDistribution{
		Histogram: make(map[graph.DegreeKind]map[int]int),
		Max:       make(map[graph.DegreeKind]int),
		PowerLaw:  make(map[graph.DegreeKind]*stats.PowerLawFit),
		Nodes:     n.Nodes(),
	}
	for _, k := range []graph.DegreeKind{graph.Raw, graph.Inbound, graph.Outbound} {
		degs := n.DegreeSlice(k)
		r.Histogram[k] = stats.DegreeHistogram(degs)
		r.Max[k] = n.Stats(k).Max
		if fit, err := stats.FitPowerLaw(degs, 1); err == nil {
			r.PowerLaw[k] = fit
		}
	}
	return r
}

// DegreeGrowth is Figure 8: the cumulative network's max raw / max inbound
// / max outbound / mean raw degree at each month, for created and
// completed contracts.
type DegreeGrowth struct {
	MaxRaw      [dataset.NumMonths]int
	MaxInbound  [dataset.NumMonths]int
	MaxOutbound [dataset.NumMonths]int
	MeanRaw     [dataset.NumMonths]float64
}

// DegreeGrowthTrend computes Figure 8 by growing the network month by
// month. completedOnly selects the completed-contract variant.
func DegreeGrowthTrend(ix *Index, completedOnly bool) DegreeGrowth {
	var r DegreeGrowth
	var buckets [dataset.NumMonths][]*forum.Contract
	if completedOnly {
		buckets = ix.CompletedByMonth()
	} else {
		buckets = ix.ByMonth()
	}
	n := graph.New()
	for m := 0; m < dataset.NumMonths; m++ {
		for _, c := range buckets[m] {
			n.Add(c)
		}
		r.MaxRaw[m] = n.Stats(graph.Raw).Max
		r.MaxInbound[m] = n.Stats(graph.Inbound).Max
		r.MaxOutbound[m] = n.Stats(graph.Outbound).Max
		r.MeanRaw[m] = n.Stats(graph.Raw).Mean
	}
	return r
}
