package analysis

import (
	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// Append derives the Index for nd — the parent corpus extended by the
// added contracts, in that order — incrementally: every derived group is
// extended in place of being rebuilt, and only the new completed-public
// obligation text goes through the classifier. nd must be ix.D plus added
// (ingest.Apply's contract, whether it applied one batch or several —
// added is then their contracts in batch order): the group builder's
// corpus-order scan then
// makes the result structurally identical to a from-scratch rebuild,
// which the golden incremental test pins report-byte-for-byte.
//
// The in-order fast path requires every added contract to be created at
// or after the parent's creation watermark; an out-of-order append has
// dirtied history (month buckets, era membership, first-era-of-use are no
// longer suffix-extensions), so Append falls back to a full rebuild.
//
// The parent's groups are never mutated: array-of-slice groups are copied
// by value, bucket extensions use capped appends (the parent's backing
// arrays cannot be written through), and maps are shallow-cloned before
// new keys land. Suite runs holding the parent keep reading consistent
// data. The extended groups are installed into nd's derived-cache slot,
// so later NewIndex(nd) handles (per-report, per-stage) share them.
func (ix *Index) Append(nd *dataset.Dataset, added []*forum.Contract) *Index {
	parent := ix.groups()
	watermark := parent.maxCreated
	for _, c := range added {
		if c.Created.Before(watermark) {
			return NewIndex(nd) // out-of-order: history dirtied, rebuild
		}
	}

	// Force the parent's obligation table so the child extends it instead
	// of re-deriving. After the first append this is a no-op: the previous
	// child was born with it built.
	parent.obligations()

	child := &corpusGroups{
		nContracts: len(nd.Contracts),
		maxCreated: watermark,
	}

	// Months: value-copy the bucket arrays, then cap each touched bucket
	// before appending so the parent's backing array is never written.
	child.byMonth = parent.byMonth
	child.completedByMonth = parent.completedByMonth
	for _, c := range added {
		m := dataset.MonthOf(c.Created)
		child.byMonth[m] = appendCopy(child.byMonth[m], c)
		if c.IsComplete() {
			at := c.Completed
			if at.IsZero() {
				at = c.Created
			}
			cm := dataset.MonthOf(at)
			child.completedByMonth[cm] = appendCopy(child.completedByMonth[cm], c)
		}
	}

	// Subsets: suffix-extend in corpus order.
	child.completed = parent.completed
	child.public = parent.public
	child.completedPublic = parent.completedPublic
	for _, c := range added {
		done := c.IsComplete()
		if done {
			child.completed = appendCopy(child.completed, c)
		}
		if c.Public {
			child.public = appendCopy(child.public, c)
			if done {
				child.completedPublic = appendCopy(child.completedPublic, c)
			}
		}
	}

	// Eras.
	child.inEra = parent.inEra
	for _, c := range added {
		e := dataset.EraOf(c.Created)
		child.inEra[e] = appendCopy(child.inEra[e], c)
	}

	// Per-user groupings: clone the maps, extend touched users' lists.
	child.userContracts = make(map[forum.UserID][]*forum.Contract, len(parent.userContracts)+2*len(added))
	for u, cs := range parent.userContracts {
		child.userContracts[u] = cs
	}
	child.firstEra = make(map[forum.UserID]dataset.Era, len(parent.firstEra)+2*len(added))
	for u, e := range parent.firstEra {
		child.firstEra[u] = e
	}
	for _, c := range added {
		child.userContracts[c.Maker] = appendCopy(child.userContracts[c.Maker], c)
		if c.Taker != c.Maker {
			child.userContracts[c.Taker] = appendCopy(child.userContracts[c.Taker], c)
		}
		e := dataset.EraOf(c.Created)
		for _, u := range []forum.UserID{c.Maker, c.Taker} {
			if prev, ok := child.firstEra[u]; !ok || e < prev {
				child.firstEra[u] = e
			}
		}
	}

	// Obligation table: clone, then classify only the new completed-public
	// text — the incremental path's whole point. The value-extraction memo
	// is left unbuilt: it rebuilds lazily (per distinct text) on the first
	// value stage over the child corpus.
	child.oblig = make(map[forum.ContractID]*obligation, len(parent.oblig)+len(added))
	for id, o := range parent.oblig {
		child.oblig[id] = o
	}
	child.money = parent.money
	for _, c := range added {
		if !c.Public || !c.IsComplete() {
			continue
		}
		o := classifyContract(c)
		child.oblig[c.ID] = &o
		if (o.makerCatMask|o.takerCatMask)&moneyMask != 0 {
			child.money = appendCopy(child.money, c)
		}
	}
	// The obligation group is fully extended: mark its Once consumed so
	// lazy accessors hand out this state instead of rebuilding from nd.
	child.obligOnce.Do(func() {})

	// New watermark: the in-order check above makes it the last added
	// contract's creation time (or the parent's, for a contract-less batch).
	for _, c := range added {
		if c.Created.After(child.maxCreated) {
			child.maxCreated = c.Created
		}
	}

	nix := &Index{D: nd}
	nix.g.Store(child)
	// Share the extended groups with every future Index over nd.
	nd.StoreDerived(child)
	return nix
}

// appendCopy appends c to s without ever growing into s's backing array:
// the capped three-index slice forces the append to allocate, so siblings
// derived from the same parent cannot clobber each other's elements.
func appendCopy(s []*forum.Contract, c *forum.Contract) []*forum.Contract {
	return append(s[:len(s):len(s)], c)
}
