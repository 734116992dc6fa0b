package analysis

import (
	"sort"

	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// ParticipationStats reproduces the §4.3 participation text: "Most makers
// initiate only a small number of contracts, with 49% making one
// transaction, 16% making two, and only 5% exceeding 20. ... two users
// initiating over 700 contracts. Equally, most takers accept few
// contracts... two takers accepting more than 9,000 contracts."
type ParticipationStats struct {
	Makers SideParticipation
	Takers SideParticipation
}

// SideParticipation summarises one side's per-user transaction counts.
type SideParticipation struct {
	Users       int     // users appearing on this side at least once
	ShareOne    float64 // fraction with exactly one transaction
	ShareTwo    float64 // fraction with exactly two
	ShareOver20 float64 // fraction with more than 20
	Top         []int   // the five largest per-user counts, descending
	MaxCount    int
	MedianCount float64
}

// Participation computes the maker/taker repeat-transaction distributions
// over all contracts (the taker side counts entered deals only).
func Participation(ix *Index) ParticipationStats {
	makers := map[forum.UserID]int{}
	takers := map[forum.UserID]int{}
	for u, cs := range ix.UserContracts() {
		for _, c := range cs {
			if c.Maker == u {
				makers[u]++
			}
			if c.Taker == u {
				switch c.Status {
				case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
				default:
					takers[u]++
				}
			}
		}
	}
	return ParticipationStats{
		Makers: sideStats(makers),
		Takers: sideStats(takers),
	}
}

func sideStats(counts map[forum.UserID]int) SideParticipation {
	s := SideParticipation{Users: len(counts)}
	if len(counts) == 0 {
		return s
	}
	all := make([]int, 0, len(counts))
	var one, two, over20 int
	for _, n := range counts {
		all = append(all, n)
		switch {
		case n == 1:
			one++
		case n == 2:
			two++
		}
		if n > 20 {
			over20++
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	total := float64(len(all))
	s.ShareOne = float64(one) / total
	s.ShareTwo = float64(two) / total
	s.ShareOver20 = float64(over20) / total
	s.MaxCount = all[0]
	top := 5
	if top > len(all) {
		top = len(all)
	}
	s.Top = append([]int(nil), all[:top]...)
	mid := len(all) / 2
	if len(all)%2 == 1 {
		s.MedianCount = float64(all[mid])
	} else {
		s.MedianCount = float64(all[mid-1]+all[mid]) / 2
	}
	return s
}

// DisputeTrend reproduces the §5.1 dispute dynamics: the monthly share of
// created contracts that end disputed, which sits near 1% for most of the
// study but peaks at 2-3% in the last six months of SET-UP (the Tuckman
// "storming" signal) and halves at the start of STABLE.
type DisputeTrend struct {
	Share [dataset.NumMonths]float64
}

// Disputes computes the monthly disputed share.
func Disputes(d *dataset.Dataset) DisputeTrend {
	var disputed, total [dataset.NumMonths]float64
	for _, c := range d.Contracts {
		m := dataset.MonthOf(c.Created)
		total[m]++
		if c.Status == forum.StatusDisputed {
			disputed[m]++
		}
	}
	var t DisputeTrend
	for m := range t.Share {
		if total[m] > 0 {
			t.Share[m] = disputed[m] / total[m]
		}
	}
	return t
}

// EraMean returns the mean monthly disputed share within an era.
func (t DisputeTrend) EraMean(e dataset.Era) float64 {
	months := e.Months()
	if len(months) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range months {
		sum += t.Share[m]
	}
	return sum / float64(len(months))
}

// LateSetupMean returns the mean disputed share over the last six months
// of SET-UP (2018-09 .. 2019-02), the storming window.
func (t DisputeTrend) LateSetupMean() float64 {
	sum := 0.0
	for m := 3; m <= 8; m++ {
		sum += t.Share[m]
	}
	return sum / 6
}
