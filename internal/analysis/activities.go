package analysis

import (
	"sort"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/textmine"
)

// SideCount is one side's tally for an activity or payment method row:
// number of completed public contracts matched on that side, and the
// unique users involved on that side.
type SideCount struct {
	Contracts int
	Users     int
}

// ActivityRow is one row of Table 3.
type ActivityRow struct {
	Category textmine.Category
	Makers   SideCount
	Takers   SideCount
	Both     SideCount
}

// ActivitiesResult is Table 3: per-category tallies over completed public
// contracts, with the all-categories totals row.
type ActivitiesResult struct {
	Rows  []ActivityRow // sorted by Both.Contracts descending
	Total ActivityRow   // the "All Trading Activities" row (union semantics)
}

// Activities computes Table 3 over completed public contracts.
func Activities(ix *Index) ActivitiesResult {
	rows, total := tabulate(ix, textmine.Categories, activityMasks)
	r := ActivitiesResult{Total: ActivityRow{"All Trading Activities", total[makerSide], total[takerSide], total[eitherSide]}}
	for _, row := range rows {
		r.Rows = append(r.Rows, ActivityRow{textmine.Categories[row.bit], row.tally[makerSide], row.tally[takerSide], row.tally[eitherSide]})
	}
	return r
}

// activityMasks gives a contract's maker and taker categories: Table 3
// and Figure 9 read every completed public contract.
func activityMasks(o obligation) (makerMask, takerMask uint32) { return o.makerCats, o.takerCats }

// Row returns the row for a category, if present.
func (r ActivitiesResult) Row(cat textmine.Category) (ActivityRow, bool) {
	for _, row := range r.Rows {
		if row.Category == cat {
			return row, true
		}
	}
	return ActivityRow{}, false
}

// Sides of a tally.
const (
	makerSide = iota
	takerSide
	eitherSide
)

// tally is one row of Table 3 or 4, indexed by side: maker, taker, and
// either side.
type tally [3]SideCount

// bucketTally is a tally for the bucket at one mask bit.
type bucketTally struct {
	bit int
	tally
}

// tabulate counts Table 3 or 4 from the obligation table. sides gives a
// contract's maker and taker masks over names (both zero for a contract
// outside the table's population); each set bit is one bucket. A bucket
// counts the contracts naming it on each side and on either, and the
// distinct users on that side. The totals row counts each contract, and
// each user, once however many buckets it names, so it is below the sum
// of the rows. Rows are the buckets some contract names, ranked by
// either-side contracts, descending, then by name.
func tabulate[N ~string](ix *Index, names []N, sides func(obligation) (makerMask, takerMask uint32)) (rows []bucketTally, total tally) {
	var byBit [32]tally
	// Each side's users, mapped to the union of the buckets they name.
	users := [3]map[forum.UserID]uint32{{}, {}, {}}
	oblig := ix.obligations()
	for i, c := range ix.CompletedPublic() {
		mk, tk := sides(oblig[i])
		if mk|tk == 0 {
			continue
		}
		for s, m := range [3]uint32{mk, tk, mk | tk} {
			if m != 0 {
				total[s].Contracts++
			}
			for ; m != 0; m &= m - 1 {
				byBit[trailingBit(m)][s].Contracts++
			}
		}
		if mk != 0 {
			users[makerSide][c.Maker] |= mk
			users[eitherSide][c.Maker] |= mk
		}
		if tk != 0 {
			users[takerSide][c.Taker] |= tk
			users[eitherSide][c.Taker] |= tk
		}
	}
	for s, us := range users {
		total[s].Users = len(us)
		for _, m := range us {
			for ; m != 0; m &= m - 1 {
				byBit[trailingBit(m)][s].Users++
			}
		}
	}
	for b := range names {
		if byBit[b][eitherSide].Contracts > 0 {
			rows = append(rows, bucketTally{b, byBit[b]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if ci, cj := rows[i].tally[eitherSide].Contracts, rows[j].tally[eitherSide].Contracts; ci != cj {
			return ci > cj
		}
		return names[rows[i].bit] < names[rows[j].bit]
	})
	return rows, total
}

// ProductTrend is Figure 9: the monthly number of completed public
// contracts in the overall top five product categories, excluding currency
// exchange and payments (examined separately in §4.4).
type ProductTrend struct {
	Categories []textmine.Category
	Counts     map[textmine.Category][dataset.NumMonths]int
}

// ProductTrends computes Figure 9, taking the top five product
// categories from Table 3.
func ProductTrends(ix *Index) ProductTrend {
	var top []textmine.Category
	for _, row := range Activities(ix).Rows {
		if row.Category == textmine.CurrencyExchange || row.Category == textmine.Payments {
			continue
		}
		top = append(top, row.Category)
		if len(top) == 5 {
			break
		}
	}
	return ProductTrend{Categories: top, Counts: monthlyCounts(ix, top, catBit, activityMasks)}
}

// monthlyCounts is Figures 9 and 10's series: per completion month, the
// completed public contracts naming each of top's buckets on either side
// (bit gives a bucket's mask bit; sides as for tabulate).
func monthlyCounts[N comparable](ix *Index, top []N, bit map[N]uint32, sides func(obligation) (makerMask, takerMask uint32)) map[N][dataset.NumMonths]int {
	series := make([][dataset.NumMonths]int, len(top))
	oblig := ix.obligations()
	for i, c := range ix.CompletedPublic() {
		mk, tk := sides(oblig[i])
		if mk|tk == 0 {
			continue
		}
		m := dataset.MonthOf(completedAt(c))
		for j, n := range top {
			if (mk|tk)&(1<<bit[n]) != 0 {
				series[j][m]++
			}
		}
	}
	counts := make(map[N][dataset.NumMonths]int, len(top))
	for j, n := range top {
		counts[n] = series[j]
	}
	return counts
}
