package analysis

import (
	"reflect"
	"testing"

	"turnup/internal/textmine"
)

// Table 5 rows with equal totals must come out in declared order, the
// same on every call: the report bytes may not depend on how the rows
// were gathered.
func TestRankRowsTiesKeepDeclaredOrder(t *testing.T) {
	acc := make([]*ValueRow, len(textmine.Categories))
	totals := map[int]float64{0: 5, 2: 7, 3: 5, 6: 0, 7: 7, 9: 5, 11: 0}
	for i, v := range totals {
		acc[i] = &ValueRow{Category: textmine.Categories[i], MakersUSD: v / 2, TakersUSD: v / 2}
	}
	var want []textmine.Category
	for _, i := range []int{2, 7, 0, 3, 9, 6, 11} {
		want = append(want, textmine.Categories[i])
	}
	for run := 0; run < 20; run++ {
		var got []textmine.Category
		for _, row := range rankRows(acc) {
			got = append(got, row.Category)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: order %v, want %v", run, got, want)
		}
	}

	macc := make([]*MethodValueRow, len(textmine.Methods))
	for _, i := range []int{4, 1, 8} {
		macc[i] = &MethodValueRow{Method: textmine.Methods[i], TakersUSD: 3}
	}
	macc[10] = &MethodValueRow{Method: textmine.Methods[10], MakersUSD: 4}
	var got []textmine.Method
	for _, row := range rankRows(macc) {
		got = append(got, row.Method)
	}
	wantM := []textmine.Method{textmine.Methods[10], textmine.Methods[1], textmine.Methods[4], textmine.Methods[8]}
	if !reflect.DeepEqual(got, wantM) {
		t.Fatalf("method order %v, want %v", got, wantM)
	}
}
