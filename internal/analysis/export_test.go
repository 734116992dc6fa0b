package analysis

import "turnup/internal/dataset"

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
