package analysis

import "turnup/internal/dataset"

// CohortRetention is a join-month × months-since-join activity matrix:
// Retention[c][k] is the fraction of users first active in study month c
// who are party to at least one contract k months later. It quantifies
// §2.2's observation that "users of underground markets are transient".
type CohortRetention struct {
	// Retention[c][k]; k = 0 is the joining month itself (always 1 for
	// cohorts with any members).
	Retention [dataset.NumMonths][dataset.NumMonths]float64
	// Size[c] is the number of users in cohort c.
	Size [dataset.NumMonths]int
}

// Cohorts computes the retention matrix from contract participation.
func Cohorts(ix *Index) CohortRetention {
	var r CohortRetention
	var activeCounts [dataset.NumMonths][dataset.NumMonths]int
	// Per-user retention is a pure count: iterating users in map order is
	// fine because every accumulation below is commutative.
	for _, cs := range ix.UserContracts() {
		var active [dataset.NumMonths]bool
		first := dataset.NumMonths
		for _, c := range cs {
			m := int(dataset.MonthOf(c.Created))
			active[m] = true
			if m < first {
				first = m
			}
		}
		r.Size[first]++
		for m := first; m < dataset.NumMonths; m++ {
			if active[m] {
				activeCounts[first][m-first]++
			}
		}
	}
	for c := 0; c < dataset.NumMonths; c++ {
		if r.Size[c] == 0 {
			continue
		}
		for k := 0; k < dataset.NumMonths; k++ {
			r.Retention[c][k] = float64(activeCounts[c][k]) / float64(r.Size[c])
		}
	}
	return r
}

// MeanRetentionAt returns the cohort-size-weighted mean retention k months
// after joining, over cohorts that can be observed that far.
func (r CohortRetention) MeanRetentionAt(k int) float64 {
	var num, den float64
	for c := 0; c+k < dataset.NumMonths; c++ {
		num += r.Retention[c][k] * float64(r.Size[c])
		den += float64(r.Size[c])
	}
	if den == 0 {
		return 0
	}
	return num / den
}
