package analysis

import (
	"sync"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/textmine"
)

// corpusGroups is the full set of derived groupings over one immutable
// corpus — the value an Index hands out and the dataset's derived-cache
// slot stores, so every Index over the same corpus (per-stage, per-report,
// per-generation) shares one construction instead of each rebuilding it.
//
// The eager groups are filled by buildGroups in a single scan of the
// columnar projection; the obligation-classification and value-extraction
// tables stay lazy behind their own sync.Once so partial runs never pay
// for text mining they don't touch. Everything here is shared read-only
// data; the incremental append path extends copies (see Append), never
// mutates an installed corpusGroups.
type corpusGroups struct {
	// nContracts keys cache freshness: a dataset whose contract count no
	// longer matches was extended (or mutated) and rebuilds.
	nContracts int

	byMonth          [dataset.NumMonths][]*forum.Contract
	completedByMonth [dataset.NumMonths][]*forum.Contract
	completed        []*forum.Contract
	completedPublic  []*forum.Contract
	inEra            [dataset.NumEras][]*forum.Contract
	userContracts    map[forum.UserID][]*forum.Contract
	firstEra         map[forum.UserID]dataset.Era

	obligOnce sync.Once
	oblig     map[forum.ContractID]*obligation
	money     []*forum.Contract

	valsOnce sync.Once
	vals     map[string][]textmine.Money
}

// Category/method bit tables: every classification is also carried as a
// bitmask over the canonical textmine orderings, so per-contract unions
// (Table 5's maker∪taker rows) are ORs instead of map inserts.
var (
	catBit  = map[textmine.Category]uint32{}
	methBit = map[textmine.Method]uint32{}
	// uncatMask is Uncategorised's bit — excluded from activity unions.
	uncatMask uint32
	// moneyMask covers the money-movement categories (currency exchange,
	// payments, giftcard) — the MoneyContracts membership test.
	moneyMask uint32
)

func init() {
	for i, c := range textmine.Categories {
		catBit[c] = uint32(i)
	}
	catBit[textmine.Uncategorised] = uint32(len(textmine.Categories))
	uncatMask = uint32(1) << catBit[textmine.Uncategorised]
	moneyMask = uint32(1)<<catBit[textmine.CurrencyExchange] |
		uint32(1)<<catBit[textmine.Payments] |
		uint32(1)<<catBit[textmine.Giftcard]
	for i, m := range textmine.Methods {
		methBit[m] = uint32(i)
	}
}

func catMaskOf(cats []textmine.Category) uint32 {
	var m uint32
	for _, c := range cats {
		m |= 1 << catBit[c]
	}
	return m
}

func methMaskOf(ms []textmine.Method) uint32 {
	var m uint32
	for _, meth := range ms {
		m |= 1 << methBit[meth]
	}
	return m
}

// sharedGroups resolves the corpus's derived groups through the dataset's
// cache slot: built at most once per corpus content, shared by every
// Index. Freshness is keyed to the contract count, so copy-on-write
// extensions (which install their own groups via StoreDerived) and
// rebuilt datasets both resolve correctly.
func sharedGroups(d *dataset.Dataset) *corpusGroups {
	return d.CachedDerived(
		func(v any) bool {
			g, ok := v.(*corpusGroups)
			return ok && g.nContracts == len(d.Contracts)
		},
		func() any { return buildGroups(d) },
	).(*corpusGroups)
}

// buildGroups derives every eager group in one scan of the columnar
// projection (see extend) and leaves the text-mining tables lazy.
func buildGroups(d *dataset.Dataset) *corpusGroups {
	g := &corpusGroups{
		userContracts: make(map[forum.UserID][]*forum.Contract, len(d.Users)),
		firstEra:      make(map[forum.UserID]dataset.Era, len(d.Users)),
	}
	g.extend(d)
	return g
}

// extend buckets d's rows from g.nContracts on — every row for a fresh
// build, the appended suffix for Append — and advances g.nContracts to
// cover d. Predicates read the projection's month, completion-month, era
// and public columns and the interned party table, so BuildBlock alone
// decides where a contract lands; bucket contents are the corpus's own
// contract pointers, appended in corpus order. The scan is sequential,
// so the result is the same at any worker count, and extending a prefix's
// groups by the remaining rows equals building them all at once.
func (g *corpusGroups) extend(d *dataset.Dataset) {
	row := 0
	for _, b := range d.Columns().Blocks {
		for i := max(g.nContracts-row, 0); i < b.N; i++ {
			c := d.Contracts[row+i]
			m := b.Month[i]
			g.byMonth[m] = append(g.byMonth[m], c)
			done := b.CompletedMonth[i] >= 0
			if done {
				cm := b.CompletedMonth[i]
				g.completedByMonth[cm] = append(g.completedByMonth[cm], c)
				g.completed = append(g.completed, c)
			}
			if b.Public[i] && done {
				g.completedPublic = append(g.completedPublic, c)
			}
			e := dataset.Era(b.Era[i])
			g.inEra[e] = append(g.inEra[e], c)

			maker := forum.UserID(b.PartyIDs[b.Maker[i]])
			taker := forum.UserID(b.PartyIDs[b.Taker[i]])
			g.userContracts[maker] = append(g.userContracts[maker], c)
			if taker != maker {
				g.userContracts[taker] = append(g.userContracts[taker], c)
			}
			if prev, ok := g.firstEra[maker]; !ok || e < prev {
				g.firstEra[maker] = e
			}
			if prev, ok := g.firstEra[taker]; !ok || e < prev {
				g.firstEra[taker] = e
			}
		}
		row += b.N
	}
	g.nContracts = row
}

// obligations returns the contract→classification table, building it on
// first use — along with the money-contracts subset, which is a pure
// function of the same classifications.
func (g *corpusGroups) obligations() map[forum.ContractID]*obligation {
	g.obligOnce.Do(func() {
		g.oblig = make(map[forum.ContractID]*obligation, len(g.completedPublic))
		g.classify(g.completedPublic)
	})
	return g.oblig
}

// classify installs an obligation entry for each of cs into g.oblig and
// appends the money-movement ones to g.money, in cs order. Each distinct
// obligation text is classified exactly once (corpora repeat template
// text heavily).
func (g *corpusGroups) classify(cs []*forum.Contract) {
	type classified struct {
		cats     []textmine.Category
		methods  []textmine.Method
		catMask  uint32
		methMask uint32
	}
	results := make(map[string]classified, 2*len(cs))
	lookup := func(text string) classified {
		r, ok := results[text]
		if !ok {
			cats, methods := textmine.Classify(text)
			r = classified{cats, methods, catMaskOf(cats), methMaskOf(methods)}
			results[text] = r
		}
		return r
	}
	entries := make([]obligation, len(cs))
	for i, c := range cs {
		mk := lookup(c.MakerObligation)
		tk := lookup(c.TakerObligation)
		entries[i] = obligation{
			MakerCats:     mk.cats,
			TakerCats:     tk.cats,
			MakerMethods:  mk.methods,
			TakerMethods:  tk.methods,
			makerCatMask:  mk.catMask,
			takerCatMask:  tk.catMask,
			makerMethMask: mk.methMask,
			takerMethMask: tk.methMask,
		}
		g.oblig[c.ID] = &entries[i]
		if (mk.catMask|tk.catMask)&moneyMask != 0 {
			g.money = append(g.money, c)
		}
	}
}

// moneyContracts returns the money-movement subset, forcing the
// obligation build it falls out of.
func (g *corpusGroups) moneyContracts() []*forum.Contract {
	g.obligations()
	return g.money
}

// extractedValues returns the memoized text→quoted-values table for the
// value analysis: ExtractValues runs once per distinct obligation text in
// the §4.5 population (completed public, VOUCH COPY excluded) instead of
// twice per contract per stage. Currency conversion stays per-contract —
// it depends on the transaction time, not the text.
func (g *corpusGroups) extractedValues() map[string][]textmine.Money {
	g.valsOnce.Do(func() {
		vals := make(map[string][]textmine.Money, 2*len(g.completedPublic))
		for _, c := range g.completedPublic {
			if c.Type == forum.VouchCopy {
				continue
			}
			if _, ok := vals[c.MakerObligation]; !ok {
				vals[c.MakerObligation] = textmine.ExtractValues(c.MakerObligation)
			}
			if _, ok := vals[c.TakerObligation]; !ok {
				vals[c.TakerObligation] = textmine.ExtractValues(c.TakerObligation)
			}
		}
		g.vals = vals
	})
	return g.vals
}
