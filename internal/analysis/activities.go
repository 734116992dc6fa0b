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
	return activitiesOver(ix, ix.CompletedPublic())
}

func activitiesOver(ix *Index, cs []*forum.Contract) ActivitiesResult {
	type acc struct {
		makerContracts, takerContracts, bothContracts int
		makerUsers, takerUsers, bothUsers             map[forum.UserID]bool
	}
	accs := map[textmine.Category]*acc{}
	get := func(cat textmine.Category) *acc {
		a, ok := accs[cat]
		if !ok {
			a = &acc{
				makerUsers: map[forum.UserID]bool{},
				takerUsers: map[forum.UserID]bool{},
				bothUsers:  map[forum.UserID]bool{},
			}
			accs[cat] = a
		}
		return a
	}
	totalAcc := get("__total__")
	for _, c := range cs {
		catsM := ix.MakerCategories(c)
		catsT := ix.TakerCategories(c)
		seenBoth := map[textmine.Category]bool{}
		anyClassified := false
		for _, cat := range catsM {
			if cat == textmine.Uncategorised {
				continue
			}
			anyClassified = true
			a := get(cat)
			a.makerContracts++
			a.makerUsers[c.Maker] = true
			a.bothUsers[c.Maker] = true
			if !seenBoth[cat] {
				seenBoth[cat] = true
				a.bothContracts++
			}
		}
		for _, cat := range catsT {
			if cat == textmine.Uncategorised {
				continue
			}
			anyClassified = true
			a := get(cat)
			a.takerContracts++
			a.takerUsers[c.Taker] = true
			a.bothUsers[c.Taker] = true
			if !seenBoth[cat] {
				seenBoth[cat] = true
				a.bothContracts++
			}
		}
		if anyClassified {
			// The totals row counts each classified contract once per side
			// and once overall, matching the paper's note that the total is
			// below the per-category sum.
			if hasRealCategory(catsM) {
				totalAcc.makerContracts++
				totalAcc.makerUsers[c.Maker] = true
				totalAcc.bothUsers[c.Maker] = true
			}
			if hasRealCategory(catsT) {
				totalAcc.takerContracts++
				totalAcc.takerUsers[c.Taker] = true
				totalAcc.bothUsers[c.Taker] = true
			}
			totalAcc.bothContracts++
		}
	}

	var r ActivitiesResult
	for cat, a := range accs {
		if cat == "__total__" {
			continue
		}
		r.Rows = append(r.Rows, ActivityRow{
			Category: cat,
			Makers:   SideCount{a.makerContracts, len(a.makerUsers)},
			Takers:   SideCount{a.takerContracts, len(a.takerUsers)},
			Both:     SideCount{a.bothContracts, len(a.bothUsers)},
		})
	}
	sort.Slice(r.Rows, func(i, j int) bool {
		if r.Rows[i].Both.Contracts != r.Rows[j].Both.Contracts {
			return r.Rows[i].Both.Contracts > r.Rows[j].Both.Contracts
		}
		return r.Rows[i].Category < r.Rows[j].Category
	})
	r.Total = ActivityRow{
		Category: "All Trading Activities",
		Makers:   SideCount{totalAcc.makerContracts, len(totalAcc.makerUsers)},
		Takers:   SideCount{totalAcc.takerContracts, len(totalAcc.takerUsers)},
		Both:     SideCount{totalAcc.bothContracts, len(totalAcc.bothUsers)},
	}
	return r
}

func hasRealCategory(cats []textmine.Category) bool {
	for _, c := range cats {
		if c != textmine.Uncategorised {
			return true
		}
	}
	return false
}

// Row returns the row for a category, if present.
func (r ActivitiesResult) Row(cat textmine.Category) (ActivityRow, bool) {
	for _, row := range r.Rows {
		if row.Category == cat {
			return row, true
		}
	}
	return ActivityRow{}, false
}

// ProductTrend is Figure 9: the monthly number of completed public
// contracts in the overall top five product categories, excluding currency
// exchange and payments (examined separately in §4.4).
type ProductTrend struct {
	Categories []textmine.Category
	Counts     map[textmine.Category][dataset.NumMonths]int
}

// ProductTrends computes Figure 9.
func ProductTrends(ix *Index) ProductTrend {
	overall := Activities(ix)
	var top []textmine.Category
	for _, row := range overall.Rows {
		if row.Category == textmine.CurrencyExchange || row.Category == textmine.Payments {
			continue
		}
		top = append(top, row.Category)
		if len(top) == 5 {
			break
		}
	}
	counts := make(map[textmine.Category][dataset.NumMonths]int)
	for _, c := range ix.CompletedPublic() {
		at := c.Completed
		if at.IsZero() {
			at = c.Created
		}
		m := dataset.MonthOf(at)
		matched := map[textmine.Category]bool{}
		for _, cat := range ix.MakerCategories(c) {
			matched[cat] = true
		}
		for _, cat := range ix.TakerCategories(c) {
			matched[cat] = true
		}
		for _, cat := range top {
			if matched[cat] {
				arr := counts[cat]
				arr[m]++
				counts[cat] = arr
			}
		}
	}
	return ProductTrend{Categories: top, Counts: counts}
}
