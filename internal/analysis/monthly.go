package analysis

import (
	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// MonthlyGrowth is Figure 1: per-month new contracts (created and
// completed) and new members involved in each.
type MonthlyGrowth struct {
	Created      [dataset.NumMonths]int // contracts created in the month
	Completed    [dataset.NumMonths]int // contracts completed in the month
	NewCreators  [dataset.NumMonths]int // members first party to a created contract
	NewFinishers [dataset.NumMonths]int // members first party to a completed contract
}

// Growth computes Figure 1's four series.
func Growth(ix *Index) MonthlyGrowth {
	var g MonthlyGrowth
	seenCreated := make(map[forum.UserID]bool)
	seenCompleted := make(map[forum.UserID]bool)
	// Process contracts in creation order so "new member" is well defined.
	byMonth := ix.ByMonth()
	completedByMonth := ix.CompletedByMonth()
	for m := 0; m < dataset.NumMonths; m++ {
		for _, c := range byMonth[m] {
			g.Created[m]++
			for _, u := range []forum.UserID{c.Maker, c.Taker} {
				if !seenCreated[u] {
					seenCreated[u] = true
					g.NewCreators[m]++
				}
			}
		}
		for _, c := range completedByMonth[m] {
			g.Completed[m]++
			for _, u := range []forum.UserID{c.Maker, c.Taker} {
				if !seenCompleted[u] {
					seenCompleted[u] = true
					g.NewFinishers[m]++
				}
			}
		}
	}
	return g
}

// VisibilityTrend is Figure 2: the monthly share of public contracts among
// created and completed contracts.
type VisibilityTrend struct {
	CreatedPublic   [dataset.NumMonths]float64
	CompletedPublic [dataset.NumMonths]float64
}

// PublicTrend computes Figure 2.
func PublicTrend(ix *Index) VisibilityTrend {
	var t VisibilityTrend
	byMonth := ix.ByMonth()
	completedByMonth := ix.CompletedByMonth()
	for m := 0; m < dataset.NumMonths; m++ {
		var pub int
		for _, c := range byMonth[m] {
			if c.Public {
				pub++
			}
		}
		if n := len(byMonth[m]); n > 0 {
			t.CreatedPublic[m] = float64(pub) / float64(n)
		}
		pub = 0
		for _, c := range completedByMonth[m] {
			if c.Public {
				pub++
			}
		}
		if n := len(completedByMonth[m]); n > 0 {
			t.CompletedPublic[m] = float64(pub) / float64(n)
		}
	}
	return t
}

// TypeShares is Figure 3: monthly proportions of each contract type among
// created and completed contracts.
type TypeShares struct {
	Created   [dataset.NumMonths][forum.NumContractTypes]float64
	Completed [dataset.NumMonths][forum.NumContractTypes]float64
}

// TypeShareTrend computes Figure 3.
func TypeShareTrend(ix *Index) TypeShares {
	var t TypeShares
	byMonth := ix.ByMonth()
	completedByMonth := ix.CompletedByMonth()
	for m := 0; m < dataset.NumMonths; m++ {
		fill := func(cs []*forum.Contract, out *[forum.NumContractTypes]float64) {
			if len(cs) == 0 {
				return
			}
			var counts [forum.NumContractTypes]int
			for _, c := range cs {
				counts[c.Type]++
			}
			for i, n := range counts {
				out[i] = float64(n) / float64(len(cs))
			}
		}
		fill(byMonth[m], &t.Created[m])
		fill(completedByMonth[m], &t.Completed[m])
	}
	return t
}

// CompletionTimes is Figure 4: the mean completion time (hours) per type
// per month, over completed contracts that record a completion date.
type CompletionTimes struct {
	MeanHours [dataset.NumMonths][forum.NumContractTypes]float64
	Counts    [dataset.NumMonths][forum.NumContractTypes]int
	// CoveredShare is the fraction of completed contracts carrying a
	// completion date (the paper reports ~70%).
	CoveredShare float64
}

// CompletionTimeTrend computes Figure 4, bucketing by completion month.
func CompletionTimeTrend(d *dataset.Dataset) CompletionTimes {
	var r CompletionTimes
	var sums [dataset.NumMonths][forum.NumContractTypes]float64
	covered, completedTotal := 0, 0
	for _, c := range d.Contracts {
		if !c.IsComplete() {
			continue
		}
		completedTotal++
		dur, ok := c.CompletionTime()
		if !ok {
			continue
		}
		covered++
		m := dataset.MonthOf(c.Completed)
		sums[m][c.Type] += dur.Hours()
		r.Counts[m][c.Type]++
	}
	for m := 0; m < dataset.NumMonths; m++ {
		for t := 0; t < forum.NumContractTypes; t++ {
			if r.Counts[m][t] > 0 {
				r.MeanHours[m][t] = sums[m][t] / float64(r.Counts[m][t])
			}
		}
	}
	if completedTotal > 0 {
		r.CoveredShare = float64(covered) / float64(completedTotal)
	}
	return r
}
