package analysis

import (
	"sort"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/stats"
)

// ConcentrationCurve is Figure 5: for each top-percentile of users (or
// threads) ranked by participation, the share of contracts they are
// involved in.
type ConcentrationCurve struct {
	// TopFrac[i] is the fraction of entities in the top i+1 ranks;
	// Share[i] is the fraction of contracts involving at least one of them.
	TopFrac []float64
	Share   []float64
}

// ShareAtTop interpolates the share covered by the top q fraction.
func (c ConcentrationCurve) ShareAtTop(q float64) float64 {
	for i, f := range c.TopFrac {
		if f >= q {
			return c.Share[i]
		}
	}
	if len(c.Share) == 0 {
		return 0
	}
	return c.Share[len(c.Share)-1]
}

// Concentration holds the four curves of Figure 5.
type Concentration struct {
	UsersCreated     ConcentrationCurve
	UsersCompleted   ConcentrationCurve
	ThreadsCreated   ConcentrationCurve
	ThreadsCompleted ConcentrationCurve
}

// Concentrate computes Figure 5. User curves rank users by the number of
// contracts they are party to and report, for each prefix of the ranking,
// the fraction of contracts involving at least one ranked user. Thread
// curves do the same over thread-linked contracts.
func Concentrate(ix *Index) Concentration {
	completed := ix.Completed()
	return Concentration{
		UsersCreated:     userCurve(ix.D.Contracts),
		UsersCompleted:   userCurve(completed),
		ThreadsCreated:   threadCurve(ix.D.Contracts),
		ThreadsCompleted: threadCurve(completed),
	}
}

func userCurve(cs []*forum.Contract) ConcentrationCurve {
	counts := map[forum.UserID]int{}
	for _, c := range cs {
		counts[c.Maker]++
		counts[c.Taker]++
	}
	type entry struct {
		id forum.UserID
		n  int
	}
	ranked := make([]entry, 0, len(counts))
	for id, n := range counts {
		ranked = append(ranked, entry{id, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].id < ranked[j].id
	})

	// A contract is covered once either party enters the ranking prefix —
	// i.e. at the smaller of its two parties' ranks. Histogram contracts
	// by that rank and prefix-sum, instead of materialising a per-user
	// contract-index multimap. The counts map is reused as the rank table
	// (every ranked user is a counts key, and counts are no longer needed).
	rankOf := counts
	for i, e := range ranked {
		rankOf[e.id] = i
	}
	coveredAt := make([]int, len(ranked))
	for _, c := range cs {
		r := rankOf[c.Maker]
		if tr := rankOf[c.Taker]; tr < r {
			r = tr
		}
		coveredAt[r]++
	}
	covered := 0
	curve := ConcentrationCurve{
		TopFrac: make([]float64, len(ranked)),
		Share:   make([]float64, len(ranked)),
	}
	for i := range ranked {
		covered += coveredAt[i]
		curve.TopFrac[i] = float64(i+1) / float64(len(ranked))
		if len(cs) > 0 {
			curve.Share[i] = float64(covered) / float64(len(cs))
		}
	}
	return curve
}

func threadCurve(cs []*forum.Contract) ConcentrationCurve {
	counts := map[forum.ThreadID]int{}
	linked := 0
	for _, c := range cs {
		if c.Thread != 0 {
			counts[c.Thread]++
			linked++
		}
	}
	ns := make([]int, 0, len(counts))
	for _, n := range counts {
		ns = append(ns, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ns)))
	curve := ConcentrationCurve{
		TopFrac: make([]float64, len(ns)),
		Share:   make([]float64, len(ns)),
	}
	acc := 0
	for i, n := range ns {
		acc += n
		curve.TopFrac[i] = float64(i+1) / float64(len(ns))
		if linked > 0 {
			curve.Share[i] = float64(acc) / float64(linked)
		}
	}
	return curve
}

// KeyShare is Figure 6: the monthly share of contracts involving that
// month's key (top-5%) members and key threads.
type KeyShare struct {
	MemberCreated   [dataset.NumMonths]float64
	MemberCompleted [dataset.NumMonths]float64
	ThreadCreated   [dataset.NumMonths]float64
	ThreadCompleted [dataset.NumMonths]float64
}

// KeyShares computes Figure 6. Key members and key threads are recomputed
// per month, as the paper notes.
func KeyShares(ix *Index) KeyShare {
	var r KeyShare
	byMonth := ix.ByMonth()
	completedByMonth := ix.CompletedByMonth()
	for m := 0; m < dataset.NumMonths; m++ {
		r.MemberCreated[m] = keyMemberShare(byMonth[m])
		r.MemberCompleted[m] = keyMemberShare(completedByMonth[m])
		r.ThreadCreated[m] = keyThreadShare(byMonth[m])
		r.ThreadCompleted[m] = keyThreadShare(completedByMonth[m])
	}
	return r
}

func keyMemberShare(cs []*forum.Contract) float64 {
	if len(cs) == 0 {
		return 0
	}
	curve := userCurve(cs)
	return curve.ShareAtTop(0.05)
}

func keyThreadShare(cs []*forum.Contract) float64 {
	curve := threadCurve(cs)
	if len(curve.Share) == 0 {
		return 0
	}
	return curve.ShareAtTop(0.05)
}

// Centralisation is the monthly Gini coefficient of per-user contract
// participation — a single-number view of §4.2's "the market is becoming
// more centralised over time around influential users".
type Centralisation struct {
	Gini [dataset.NumMonths]float64
}

// CentralisationTrend computes the monthly participation Gini.
func CentralisationTrend(ix *Index) Centralisation {
	var out Centralisation
	byMonth := ix.ByMonth()
	for m := 0; m < dataset.NumMonths; m++ {
		counts := map[forum.UserID]float64{}
		for _, c := range byMonth[m] {
			counts[c.Maker]++
			counts[c.Taker]++
		}
		weights := make([]float64, 0, len(counts))
		for _, v := range counts {
			weights = append(weights, v)
		}
		out.Gini[m] = stats.Gini(weights)
	}
	return out
}
