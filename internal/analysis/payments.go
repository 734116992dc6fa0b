package analysis

import (
	"turnup/internal/dataset"
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
	rows, total := tabulate(ix, textmine.Methods, moneyMethods)
	r := PaymentsResult{Total: PaymentRow{"All Methods", total[makerSide], total[takerSide], total[eitherSide]}}
	for _, row := range rows {
		r.Rows = append(r.Rows, PaymentRow{textmine.Methods[row.bit], row.tally[makerSide], row.tally[takerSide], row.tally[eitherSide]})
	}
	return r
}

// moneyMethods gives a money-movement contract's maker and taker payment
// methods, and nothing for any other contract: Table 4 and Figure 10 read
// only the contracts classified into currency exchange, payments or
// giftcard on either side.
func moneyMethods(o obligation) (makerMask, takerMask uint32) {
	if o.cats()&moneyMask == 0 {
		return 0, 0
	}
	return o.makerMeths, o.takerMeths
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

// PaymentTrends computes Figure 10, taking the top five methods from
// Table 4.
func PaymentTrends(ix *Index) PaymentTrend {
	var top []textmine.Method
	for _, row := range PaymentMethods(ix).Rows {
		top = append(top, row.Method)
		if len(top) == 5 {
			break
		}
	}
	return PaymentTrend{Methods: top, Counts: monthlyCounts(ix, top, methBit, moneyMethods)}
}
