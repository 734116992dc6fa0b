package analysis

import (
	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// RebuildIndex returns an Index over a freshly built set of derived
// groups, bypassing — and not installing into — the dataset's shared
// cache. The incremental tests compare an appended Index against it
// when "from scratch" must mean exactly that: NewIndex would resolve the
// shared cache slot Append installed the groups under test into.
func RebuildIndex(d *dataset.Dataset) *Index {
	ix := &Index{D: d}
	ix.g.Store(buildGroups(d))
	return ix
}

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
