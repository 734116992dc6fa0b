package analysis

import "turnup/internal/forum"

// Obligations returns ix's obligation table: one entry of category and
// method masks and quoted values per CompletedPublic contract, in the
// same order.
func Obligations(ix *Index) []obligation { return ix.obligations() }

// MoneyContracts returns the completed public contracts the obligation
// table classifies into a money-movement activity on either side: the
// Table 4 population.
func MoneyContracts(ix *Index) []*forum.Contract {
	var out []*forum.Contract
	oblig := ix.obligations()
	for i, c := range ix.CompletedPublic() {
		if oblig[i].cats()&moneyMask != 0 {
			out = append(out, c)
		}
	}
	return out
}
