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
// columnar projection; the obligation table, which holds everything the
// text mining yields, stays lazy behind its own sync.Once so partial
// runs never pay for text mining they don't touch. Everything here is
// shared read-only data; the incremental append path extends copies (see
// Append), never mutates an installed corpusGroups.
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
	oblig     []obligation // mines completedPublic, entry for entry
}

// Bit positions of the classification masks: a category's or method's
// index in textmine.Categories or textmine.Methods. Uncategorised is not
// in Categories, so it has no bit.
var (
	catBit  = bitIndex(textmine.Categories)
	methBit = bitIndex(textmine.Methods)
	// moneyMask covers the money-movement categories (currency exchange,
	// payments, giftcard): the Table 4 / Figure 10 population.
	moneyMask = catMaskOf([]textmine.Category{textmine.CurrencyExchange, textmine.Payments, textmine.Giftcard})
)

func bitIndex[T comparable](xs []T) map[T]uint32 {
	bit := make(map[T]uint32, len(xs))
	for i, x := range xs {
		bit[x] = uint32(i)
	}
	return bit
}

func maskOf[T comparable](xs []T, bit map[T]uint32) uint32 {
	var m uint32
	for _, x := range xs {
		if b, ok := bit[x]; ok {
			m |= 1 << b
		}
	}
	return m
}

func catMaskOf(cats []textmine.Category) uint32 { return maskOf(cats, catBit) }

func methMaskOf(ms []textmine.Method) uint32 { return maskOf(ms, methBit) }

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
// projection (see extend) and leaves the obligation table lazy.
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

// obligations returns the obligation table, building it on first use.
func (g *corpusGroups) obligations() []obligation {
	g.obligOnce.Do(func() {
		g.oblig = make([]obligation, 0, len(g.completedPublic))
		g.classify(g.completedPublic)
	})
	return g.oblig
}

// classify appends one obligation entry per contract of cs to g.oblig,
// in cs order. Each distinct obligation text is normalised and mined
// exactly once (corpora repeat template text heavily); entries with the
// same text share its values slice.
func (g *corpusGroups) classify(cs []*forum.Contract) {
	type mined struct {
		cats, meths uint32
		vals        []textmine.Money
	}
	results := make(map[string]mined, 2*len(cs))
	lookup := func(text string) mined {
		r, ok := results[text]
		if !ok {
			cats, meths, vals := textmine.Mine(text)
			r = mined{catMaskOf(cats), methMaskOf(meths), vals}
			results[text] = r
		}
		return r
	}
	for _, c := range cs {
		mk, tk := lookup(c.MakerObligation), lookup(c.TakerObligation)
		g.oblig = append(g.oblig, obligation{mk.cats, tk.cats, mk.meths, tk.meths, mk.vals, tk.vals})
	}
}
