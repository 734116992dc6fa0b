package analysis

import (
	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// Append derives the Index for nd — the parent corpus extended by the
// added contracts, in that order — incrementally: the child's groups are
// a copy of the parent's extended by the same per-row step buildGroups
// runs (extend), over nd's new rows only, and only the new completed-public
// obligation text is mined. nd must be ix.D plus added (ingest.Apply's
// contract, whether it applied one batch or several — added is then their
// contracts in batch order); the new rows are read from nd.Contracts,
// which ends in exactly those contracts.
//
// Every group is a corpus-order scan, so the rebuild of nd visits the
// parent's rows first and the added ones after: each bucket and subset is
// the parent's plus a suffix, whatever the added contracts' creation
// times, and first-era-of-use is a minimum, which any order reaches. The
// result is therefore structurally identical to a from-scratch rebuild,
// which the golden incremental test pins report-byte-for-byte.
//
// The parent's groups are never mutated (see clone). Suite runs holding
// the parent keep reading consistent data. The returned Index owns the
// extended groups; callers share them by passing it along, as the
// dataset store does for every report over nd.
func (ix *Index) Append(nd *dataset.Dataset, added []*forum.Contract) *Index {
	parent := ix.groups()
	// Force the parent's obligation table so the child extends it instead
	// of re-deriving. After the first append this is a no-op: the previous
	// child was born with it built.
	parent.obligations()

	child := parent.clone(len(nd.Contracts) - parent.nContracts)
	child.extend(nd)
	child.classify(child.completedPublic[len(parent.completedPublic):])
	// The obligation table is fully extended: mark its Once consumed so
	// lazy accessors hand out this state instead of rebuilding from nd.
	child.obligOnce.Do(func() {})

	return &Index{D: nd, g: child}
}

// clone copies g, with its obligation table built, for a child corpus of
// n more rows: arrays by value, every slice capped at its length, maps
// shallow-cloned. The capping makes the child's first append to a slice
// reallocate instead of writing into g's spare capacity, which g's other
// children share — so siblings appended from one parent cannot clobber
// each other's elements.
func (g *corpusGroups) clone(n int) *corpusGroups {
	c := &corpusGroups{
		nContracts:      g.nContracts,
		completed:       capped(g.completed),
		completedPublic: capped(g.completedPublic),
		userContracts:   make(map[forum.UserID][]*forum.Contract, len(g.userContracts)+2*n),
		firstEra:        cloneMap(g.firstEra, 2*n),
		oblig:           capped(g.oblig),
	}
	for m := range g.byMonth {
		c.byMonth[m] = capped(g.byMonth[m])
		c.completedByMonth[m] = capped(g.completedByMonth[m])
	}
	for e := range g.inEra {
		c.inEra[e] = capped(g.inEra[e])
	}
	for u, cs := range g.userContracts {
		c.userContracts[u] = capped(cs)
	}
	return c
}

func capped[T any](s []T) []T { return s[:len(s):len(s)] }

// cloneMap shallow-copies m with room for extra new keys.
func cloneMap[K comparable, V any](m map[K]V, extra int) map[K]V {
	out := make(map[K]V, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}
