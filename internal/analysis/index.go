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
// builder scans columns in corpus order (and the obligation table's
// worker pool writes fixed, disjoint ranges), so results are identical
// at any worker count.
type Index struct {
	// D is the underlying corpus; stages reach through the Index for it.
	D *dataset.Dataset

	g atomic.Pointer[corpusGroups]
}

// obligation is the memoized classification of one contract's maker and
// taker obligation text — the table that collapses five stages' worth of
// repeated textmine.Categorize/PaymentMethods calls into one pass. The
// bitmask forms mirror the slices over the canonical textmine orderings;
// union-style consumers OR them instead of building per-contract maps.
type obligation struct {
	MakerCats    []textmine.Category
	TakerCats    []textmine.Category
	MakerMethods []textmine.Method
	TakerMethods []textmine.Method

	makerCatMask  uint32
	takerCatMask  uint32
	makerMethMask uint32
	takerMethMask uint32
}

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

// MakerCategories returns the memoized trading-activity categories of the
// contract's maker obligation (falling back to a direct parse for
// contracts outside the table — anything not completed-public).
func (ix *Index) MakerCategories(c *forum.Contract) []textmine.Category {
	if o := ix.obligationOf(c); o != nil {
		return o.MakerCats
	}
	return textmine.Categorize(c.MakerObligation)
}

// TakerCategories is MakerCategories for the taker side.
func (ix *Index) TakerCategories(c *forum.Contract) []textmine.Category {
	if o := ix.obligationOf(c); o != nil {
		return o.TakerCats
	}
	return textmine.Categorize(c.TakerObligation)
}

// MakerMethods returns the memoized payment methods mentioned in the
// contract's maker obligation.
func (ix *Index) MakerMethods(c *forum.Contract) []textmine.Method {
	if o := ix.obligationOf(c); o != nil {
		return o.MakerMethods
	}
	return textmine.PaymentMethods(c.MakerObligation)
}

// TakerMethods is MakerMethods for the taker side.
func (ix *Index) TakerMethods(c *forum.Contract) []textmine.Method {
	if o := ix.obligationOf(c); o != nil {
		return o.TakerMethods
	}
	return textmine.PaymentMethods(c.TakerObligation)
}

func (ix *Index) obligationOf(c *forum.Contract) *obligation {
	return ix.groups().obligations()[c.ID]
}

// categoryMask returns the union bitmask of both sides' categories,
// Uncategorised excluded — Table 5's per-activity membership test.
func (ix *Index) categoryMask(c *forum.Contract) uint32 {
	if o := ix.obligationOf(c); o != nil {
		return (o.makerCatMask | o.takerCatMask) &^ uncatMask
	}
	return (catMaskOf(textmine.Categorize(c.MakerObligation)) |
		catMaskOf(textmine.Categorize(c.TakerObligation))) &^ uncatMask
}

// methodMask returns the union bitmask of both sides' payment methods.
func (ix *Index) methodMask(c *forum.Contract) uint32 {
	if o := ix.obligationOf(c); o != nil {
		return o.makerMethMask | o.takerMethMask
	}
	return methMaskOf(textmine.PaymentMethods(c.MakerObligation)) |
		methMaskOf(textmine.PaymentMethods(c.TakerObligation))
}

// MoneyContracts returns the completed public contracts classified into a
// money-movement activity (currency exchange, payments, or giftcard) on
// either side — the Table 4 / Figure 10 population.
func (ix *Index) MoneyContracts() []*forum.Contract {
	return ix.groups().moneyContracts()
}
