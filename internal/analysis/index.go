package analysis

import (
	"sync/atomic"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/textmine"
)

// Index is the shared view of one immutable Dataset that every suite
// stage reads instead of re-deriving its own groupings. The paper's
// pipeline is ~29 longitudinal views over one fixed corpus, and before
// the index each view re-bucketed contracts by month, re-built the
// completed/public subsets, and — worst of all — re-parsed the same
// maker/taker obligation strings through the regex categoriser in five
// separate stages.
//
// Since the columnar refactor the Index is a thin handle: the derived
// groups themselves (corpusGroups) are built from one scan of the
// dataset's columnar projection and cached on the Dataset, so distinct
// Index values over the same corpus — per report request, per suite run,
// per generation — share a single construction. An Index resolves its
// groups on first use and then pins them, so a handle never observes two
// different group sets.
//
// Everything an Index hands out is shared and must be treated as
// read-only; that is the same ownership discipline the stage DAG already
// imposes on Suite slots. Construction is deterministic: the group
// builder scans columns in corpus order and the obligation table
// mines completed public contracts in that order, so results are
// identical at any worker count.
type Index struct {
	// D is the underlying corpus; stages reach through the Index for it.
	D *dataset.Dataset

	g atomic.Pointer[corpusGroups]
}

// obligation is what the text mining yields for one completed public
// contract's maker and taker obligation text: the categories and methods
// as bitmasks over the canonical textmine.Categories and textmine.Methods
// orderings, and the quoted values. It is the one table that Tables 3–5
// and Figures 9–11 read instead of re-parsing the text. Uncategorised has
// no bit, because every consumer drops it, so a zero category mask means
// that side names no trading activity. The values slices are shared
// between entries and must not be mutated.
type obligation struct {
	makerCats, takerCats   uint32
	makerMeths, takerMeths uint32
	makerVals, takerVals   []textmine.Money
}

// cats is the union of both sides' categories.
func (o obligation) cats() uint32 { return o.makerCats | o.takerCats }

// meths is the union of both sides' payment methods.
func (o obligation) meths() uint32 { return o.makerMeths | o.takerMeths }

// NewIndex wraps a dataset. Nothing is computed until a group is first
// requested, and the underlying groups are shared with every other Index
// over the same corpus through the dataset's derived cache.
func NewIndex(d *dataset.Dataset) *Index { return &Index{D: d} }

// groups resolves (and pins) the derived groups for this handle.
func (ix *Index) groups() *corpusGroups {
	if g := ix.g.Load(); g != nil {
		return g
	}
	g := sharedGroups(ix.D)
	ix.g.Store(g)
	return g
}

// ByMonth buckets contracts by creation month (shared; do not mutate).
func (ix *Index) ByMonth() [dataset.NumMonths][]*forum.Contract {
	return ix.groups().byMonth
}

// CompletedByMonth buckets completed contracts by completion month
// (falling back to creation month when the completion date is missing).
func (ix *Index) CompletedByMonth() [dataset.NumMonths][]*forum.Contract {
	return ix.groups().completedByMonth
}

// Completed returns all fully completed contracts, in corpus order.
func (ix *Index) Completed() []*forum.Contract {
	return ix.groups().completed
}

// CompletedPublic returns completed public contracts — the subset every
// obligation-text analysis runs on.
func (ix *Index) CompletedPublic() []*forum.Contract {
	return ix.groups().completedPublic
}

// InEra returns contracts created within era e, in corpus order.
func (ix *Index) InEra(e dataset.Era) []*forum.Contract {
	return ix.groups().inEra[e]
}

// UserContracts maps each user to every contract they are party to (as
// maker or taker), in corpus order. A contract appears in both parties'
// lists.
func (ix *Index) UserContracts() map[forum.UserID][]*forum.Contract {
	return ix.groups().userContracts
}

// FirstEraOfUse maps each user to the era of their first contract-system
// activity — the map zipRecords used to rebuild on every one of its seven
// calls.
func (ix *Index) FirstEraOfUse() map[forum.UserID]dataset.Era {
	return ix.groups().firstEra
}

// obligations returns the obligation table, one entry per
// CompletedPublic contract in the same order, building it on first use.
func (ix *Index) obligations() []obligation {
	return ix.groups().obligations()
}
