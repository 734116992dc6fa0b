package analysis

import (
	"sort"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/textmine"
)

// PaymentRow is one row of Table 4.
type PaymentRow struct {
	Method textmine.Method
	Makers SideCount
	Takers SideCount
	Both   SideCount
}

// PaymentsResult is Table 4: payment-method tallies over completed public
// contracts classified into the money-movement activities (currency
// exchange, payments, giftcard), exactly the subset the paper inspects.
type PaymentsResult struct {
	Rows  []PaymentRow
	Total PaymentRow
}

// PaymentMethods computes Table 4.
func PaymentMethods(ix *Index) PaymentsResult {
	cs := ix.MoneyContracts()
	type acc struct {
		makerContracts, takerContracts, bothContracts int
		makerUsers, takerUsers, bothUsers             map[forum.UserID]bool
	}
	accs := map[textmine.Method]*acc{}
	get := func(m textmine.Method) *acc {
		a, ok := accs[m]
		if !ok {
			a = &acc{
				makerUsers: map[forum.UserID]bool{},
				takerUsers: map[forum.UserID]bool{},
				bothUsers:  map[forum.UserID]bool{},
			}
			accs[m] = a
		}
		return a
	}
	totalAcc := get("__total__")
	for _, c := range cs {
		msM := ix.MakerMethods(c)
		msT := ix.TakerMethods(c)
		seenBoth := map[textmine.Method]bool{}
		for _, m := range msM {
			a := get(m)
			a.makerContracts++
			a.makerUsers[c.Maker] = true
			a.bothUsers[c.Maker] = true
			if !seenBoth[m] {
				seenBoth[m] = true
				a.bothContracts++
			}
		}
		for _, m := range msT {
			a := get(m)
			a.takerContracts++
			a.takerUsers[c.Taker] = true
			a.bothUsers[c.Taker] = true
			if !seenBoth[m] {
				seenBoth[m] = true
				a.bothContracts++
			}
		}
		if len(msM) > 0 || len(msT) > 0 {
			if len(msM) > 0 {
				totalAcc.makerContracts++
				totalAcc.makerUsers[c.Maker] = true
				totalAcc.bothUsers[c.Maker] = true
			}
			if len(msT) > 0 {
				totalAcc.takerContracts++
				totalAcc.takerUsers[c.Taker] = true
				totalAcc.bothUsers[c.Taker] = true
			}
			totalAcc.bothContracts++
		}
	}
	var r PaymentsResult
	for m, a := range accs {
		if m == "__total__" {
			continue
		}
		r.Rows = append(r.Rows, PaymentRow{
			Method: m,
			Makers: SideCount{a.makerContracts, len(a.makerUsers)},
			Takers: SideCount{a.takerContracts, len(a.takerUsers)},
			Both:   SideCount{a.bothContracts, len(a.bothUsers)},
		})
	}
	sort.Slice(r.Rows, func(i, j int) bool {
		if r.Rows[i].Both.Contracts != r.Rows[j].Both.Contracts {
			return r.Rows[i].Both.Contracts > r.Rows[j].Both.Contracts
		}
		return r.Rows[i].Method < r.Rows[j].Method
	})
	r.Total = PaymentRow{
		Method: "All Methods",
		Makers: SideCount{totalAcc.makerContracts, len(totalAcc.makerUsers)},
		Takers: SideCount{totalAcc.takerContracts, len(totalAcc.takerUsers)},
		Both:   SideCount{totalAcc.bothContracts, len(totalAcc.bothUsers)},
	}
	return r
}

// Row returns the row for a method, if present.
func (r PaymentsResult) Row(m textmine.Method) (PaymentRow, bool) {
	for _, row := range r.Rows {
		if row.Method == m {
			return row, true
		}
	}
	return PaymentRow{}, false
}

// PaymentTrend is Figure 10: the monthly number of completed public
// contracts mentioning each of the overall top-5 payment methods.
type PaymentTrend struct {
	Methods []textmine.Method
	Counts  map[textmine.Method][dataset.NumMonths]int
}

// PaymentTrends computes Figure 10.
func PaymentTrends(ix *Index) PaymentTrend {
	overall := PaymentMethods(ix)
	var top []textmine.Method
	for _, row := range overall.Rows {
		top = append(top, row.Method)
		if len(top) == 5 {
			break
		}
	}
	counts := make(map[textmine.Method][dataset.NumMonths]int)
	for _, c := range ix.MoneyContracts() {
		at := c.Completed
		if at.IsZero() {
			at = c.Created
		}
		m := dataset.MonthOf(at)
		mentioned := map[textmine.Method]bool{}
		for _, mm := range ix.MakerMethods(c) {
			mentioned[mm] = true
		}
		for _, mm := range ix.TakerMethods(c) {
			mentioned[mm] = true
		}
		for _, mm := range top {
			if mentioned[mm] {
				arr := counts[mm]
				arr[m]++
				counts[mm] = arr
			}
		}
	}
	return PaymentTrend{Methods: top, Counts: counts}
}
