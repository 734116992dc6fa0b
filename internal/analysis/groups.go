package analysis

import (
	"sync"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/textmine"
)

// corpusGroups is the full set of derived groupings over one immutable
// corpus, owned by the Index that built it. Callers that want to share
// one construction share the Index (the scheduler, the dataset store and
// the benchmarks all pass theirs along).
//
// The eager groups are filled by buildGroups in a single scan of the
// contract rows; the obligation table, which holds everything the text
// mining yields, stays lazy behind its own sync.Once so partial runs
// never pay for text mining they don't touch. Everything here is shared
// read-only data; the incremental append path extends copies (see
// Append), never mutates a built corpusGroups.
type corpusGroups struct {
	// nContracts is the extend cursor: the rows the groups cover.
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

// buildGroups derives every eager group in one scan of d's rows (see
// extend) and leaves the obligation table lazy.
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
// cover d. Bucket contents are the corpus's own contract pointers,
// appended in corpus order. The scan is sequential, so the result is the
// same at any worker count, and extending a prefix's groups by the
// remaining rows equals building them all at once.
func (g *corpusGroups) extend(d *dataset.Dataset) {
	for _, c := range d.Contracts[g.nContracts:] {
		m := dataset.MonthOf(c.Created)
		g.byMonth[m] = append(g.byMonth[m], c)
		if c.IsComplete() {
			cm := dataset.MonthOf(completedAt(c))
			g.completedByMonth[cm] = append(g.completedByMonth[cm], c)
			g.completed = append(g.completed, c)
			if c.Public {
				g.completedPublic = append(g.completedPublic, c)
			}
		}
		e := dataset.EraOf(c.Created)
		g.inEra[e] = append(g.inEra[e], c)

		g.userContracts[c.Maker] = append(g.userContracts[c.Maker], c)
		if c.Taker != c.Maker {
			g.userContracts[c.Taker] = append(g.userContracts[c.Taker], c)
		}
		if prev, ok := g.firstEra[c.Maker]; !ok || e < prev {
			g.firstEra[c.Maker] = e
		}
		if prev, ok := g.firstEra[c.Taker]; !ok || e < prev {
			g.firstEra[c.Taker] = e
		}
	}
	g.nContracts = len(d.Contracts)
}

// completedAt is a completed contract's completion time, or its creation
// time when no completion date is recorded: the instant that places it in
// CompletedByMonth.
func completedAt(c *forum.Contract) time.Time {
	if c.Completed.IsZero() {
		return c.Created
	}
	return c.Completed
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
