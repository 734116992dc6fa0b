package analysis

import (
	"math/bits"
	"sort"
	"time"

	"turnup/internal/chain"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/fx"
	"turnup/internal/stats"
	"turnup/internal/textmine"
)

// TypeValueSummary summarises extracted values within one contract type.
type TypeValueSummary struct {
	TotalUSD float64
	MeanUSD  float64
	MaxUSD   float64
	Count    int
}

// ValueRow is one activity row of Table 5's left half.
type ValueRow struct {
	Category  textmine.Category
	MakersUSD float64
	TakersUSD float64
}

// TotalUSD is the row total (makers + takers, as in the paper).
func (v ValueRow) TotalUSD() float64 { return v.MakersUSD + v.TakersUSD }

// MethodValueRow is one payment-method row of Table 5's right half.
type MethodValueRow struct {
	Method    textmine.Method
	MakersUSD float64
	TakersUSD float64
}

// TotalUSD is the row total.
func (v MethodValueRow) TotalUSD() float64 { return v.MakersUSD + v.TakersUSD }

// AuditOutcome tallies the §4.5 manual verification of high-value
// (>$1,000) contracts against the ledger.
type AuditOutcome struct {
	HighValue int // contracts exceeding the threshold
	Confirmed int // ledger value matches the declaration
	Revised   int // ledger value differs; contract value updated
	Unclear   int // no evidence or no matching transaction
	// Unverifiable counts high-value contracts that could not be audited at
	// all because the dataset carries no ledger — the turnup.Load case,
	// where CSV round-trips drop the chain evidence. Distinguishing this
	// from Unclear stops ledger-less runs from silently reporting an audit
	// of zeros.
	Unverifiable int
}

// ValueReport bundles every §4.5 quantity.
type ValueReport struct {
	// PerContract holds the post-audit USD value of each completed public
	// contract with a determinable non-zero value (VOUCH COPY excluded).
	PerContract map[forum.ContractID]float64

	TotalUSD float64
	MeanUSD  float64
	MaxUSD   float64
	ByType   map[forum.ContractType]TypeValueSummary

	ActivityValues []ValueRow       // Table 5 left, sorted by total desc
	MethodValues   []MethodValueRow // Table 5 right, sorted by total desc

	Audit AuditOutcome

	// ExtrapolatedUSD is the public+private lower bound, extrapolated by
	// contract type under the private-at-least-as-valuable assumption.
	ExtrapolatedUSD float64

	// TopDecileShare is the fraction of total value held by the top 10% of
	// users by value (the paper: >70%).
	TopDecileShare float64
	// MeanPerUserUSD is the average trading value per participating user.
	MeanPerUserUSD float64
}

const (
	highValueThreshold = 1000.0
	auditTolerance     = 0.10
)

// Values computes the full §4.5 value analysis (Table 5 and the
// surrounding totals) from completed public contracts.
func Values(ix *Index) ValueReport {
	d := ix.D
	fxTab := fx.Default()
	r := ValueReport{
		PerContract: make(map[forum.ContractID]float64),
		ByType:      make(map[forum.ContractType]TypeValueSummary),
	}
	ledgerEmpty := !d.HasLedger()
	// Table 5 accumulators, indexed like textmine.Categories and
	// textmine.Methods (the bit positions of the index's masks).
	actAcc := make([]*ValueRow, len(textmine.Categories))
	methAcc := make([]*MethodValueRow, len(textmine.Methods))
	userValue := map[forum.UserID]float64{}
	oblig := ix.obligations()

	for i, c := range ix.CompletedPublic() {
		if c.Type == forum.VouchCopy {
			continue // reputation proofs, not economic trades
		}
		at := completedAt(c)
		mv := firstValueUSD(oblig[i].makerVals, fxTab, at)
		tv := firstValueUSD(oblig[i].takerVals, fxTab, at)
		if mv == 0 && tv == 0 {
			continue // value undeterminable for both sides: excluded
		}
		// Goods without a quoted value are assumed equal to the other side.
		if mv == 0 {
			mv = tv
		}
		if tv == 0 {
			tv = mv
		}
		value := (mv + tv) / 2 // double counting rule

		// High-value audit against the ledger. Values beyond $10k with no
		// confirmable transaction are excluded, mirroring the paper's
		// manual rule that such quotes are "likely due to typing errors"
		// (its post-audit maximum is $9,861).
		if value > highValueThreshold {
			r.Audit.HighValue++
			if ledgerEmpty {
				// No ledger to audit against (loaded datasets): count the
				// contract explicitly instead of letting it masquerade as
				// an "unclear" audit of an empty chain.
				r.Audit.Unverifiable++
				if value > 10000 {
					continue
				}
			} else {
				switch verifyAgainstLedger(d.Ledger, c, value) {
				case chain.Confirmed:
					r.Audit.Confirmed++
				case chain.Mismatch:
					r.Audit.Revised++
					v := d.Ledger.VerifyHash(c.TxHash, value, auditTolerance)
					value = v.ActualUSD
					mv, tv = value, value
				default:
					r.Audit.Unclear++
					if value > 10000 {
						continue
					}
				}
			}
		}

		r.PerContract[c.ID] = value
		r.TotalUSD += value
		if value > r.MaxUSD {
			r.MaxUSD = value
		}
		ts := r.ByType[c.Type]
		ts.TotalUSD += value
		ts.Count++
		if value > ts.MaxUSD {
			ts.MaxUSD = value
		}
		r.ByType[c.Type] = ts
		userValue[c.Maker] += value
		userValue[c.Taker] += value

		// Table 5 left: per-activity maker/taker value sums — bitmask union
		// of both sides' categories instead of a per-contract map.
		for mask := oblig[i].cats(); mask != 0; mask &= mask - 1 {
			b := trailingBit(mask)
			row := actAcc[b]
			if row == nil {
				row = &ValueRow{Category: textmine.Categories[b]}
				actAcc[b] = row
			}
			row.MakersUSD += mv
			row.TakersUSD += tv
		}
		// Table 5 right: per-method value sums.
		for mask := oblig[i].meths(); mask != 0; mask &= mask - 1 {
			b := trailingBit(mask)
			row := methAcc[b]
			if row == nil {
				row = &MethodValueRow{Method: textmine.Methods[b]}
				methAcc[b] = row
			}
			row.MakersUSD += mv
			row.TakersUSD += tv
		}
	}

	if n := len(r.PerContract); n > 0 {
		r.MeanUSD = r.TotalUSD / float64(n)
	}
	for t, ts := range r.ByType {
		if ts.Count > 0 {
			ts.MeanUSD = ts.TotalUSD / float64(ts.Count)
			r.ByType[t] = ts
		}
	}
	r.ActivityValues = rankRows(actAcc)
	r.MethodValues = rankRows(methAcc)

	r.ExtrapolatedUSD = extrapolate(ix, r.ByType)
	r.TopDecileShare, r.MeanPerUserUSD = userValueStats(userValue)
	return r
}

// firstValueUSD walks a side's quoted values (from the obligation table)
// and returns the first converted to USD at the transaction time. An
// unknown denomination falls back to USD, per the paper's default.
func firstValueUSD(ms []textmine.Money, tab *fx.Table, at time.Time) float64 {
	for _, m := range ms {
		usd, err := tab.ToUSD(m.Amount, m.Currency, at)
		if err != nil {
			usd = m.Amount // unknown denomination: treat as USD
		}
		if usd > 0 {
			return usd
		}
	}
	return 0
}

// trailingBit returns the index of the lowest set bit (mask != 0).
func trailingBit(mask uint32) int {
	return bits.TrailingZeros32(mask)
}

func verifyAgainstLedger(l *chain.Ledger, c *forum.Contract, declared float64) chain.Verdict {
	if c.TxHash == "" {
		return chain.NotFound
	}
	return l.VerifyHash(c.TxHash, declared, auditTolerance).Verdict
}

// extrapolate scales each type's public value by its private multiple,
// assuming private contracts are at least as valuable on average.
func extrapolate(ix *Index, byType map[forum.ContractType]TypeValueSummary) float64 {
	completedAll := map[forum.ContractType]int{}
	completedPublic := map[forum.ContractType]int{}
	for _, c := range ix.Completed() {
		completedAll[c.Type]++
		if c.Public {
			completedPublic[c.Type]++
		}
	}
	total := 0.0
	for t, ts := range byType {
		if completedPublic[t] == 0 {
			continue
		}
		scale := float64(completedAll[t]) / float64(completedPublic[t])
		total += ts.TotalUSD * scale
	}
	return total
}

func userValueStats(userValue map[forum.UserID]float64) (topDecileShare, meanPerUser float64) {
	if len(userValue) == 0 {
		return 0, 0
	}
	vals := make([]float64, 0, len(userValue))
	for _, v := range userValue {
		vals = append(vals, v)
	}
	return stats.ShareOfTop(vals, 0.10), stats.Mean(vals)
}

// rankRows gathers the accumulated Table 5 rows (nil entries are buckets
// no contract touched) in declared order and sorts them by total,
// descending; rows with equal totals keep their declared order.
func rankRows[R interface{ TotalUSD() float64 }](acc []*R) []R {
	var rows []R
	for _, row := range acc {
		if row != nil {
			rows = append(rows, *row)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].TotalUSD() > rows[j].TotalUSD() })
	return rows
}

// ValueTrend is Figure 11: monthly USD value by contract type, by the
// top-5 payment methods, and by the top-5 product categories (excluding
// the money-movement ones).
type ValueTrend struct {
	ByType     map[forum.ContractType][dataset.NumMonths]float64
	ByMethod   map[textmine.Method][dataset.NumMonths]float64
	ByCategory map[textmine.Category][dataset.NumMonths]float64
	Methods    []textmine.Method
	Categories []textmine.Category
}

// ValueTrends computes Figure 11 from a previously computed ValueReport.
func ValueTrends(ix *Index, report ValueReport) ValueTrend {
	t := ValueTrend{
		ByType:     make(map[forum.ContractType][dataset.NumMonths]float64),
		ByMethod:   make(map[textmine.Method][dataset.NumMonths]float64),
		ByCategory: make(map[textmine.Category][dataset.NumMonths]float64),
	}
	// Top-5 methods / product categories by total value.
	for i, row := range report.MethodValues {
		if i == 5 {
			break
		}
		t.Methods = append(t.Methods, row.Method)
	}
	for _, row := range report.ActivityValues {
		if row.Category == textmine.CurrencyExchange || row.Category == textmine.Payments {
			continue
		}
		t.Categories = append(t.Categories, row.Category)
		if len(t.Categories) == 5 {
			break
		}
	}
	topM := map[textmine.Method]bool{}
	for _, m := range t.Methods {
		topM[m] = true
	}
	topC := map[textmine.Category]bool{}
	for _, cat := range t.Categories {
		topC[cat] = true
	}

	oblig := ix.obligations()
	for i, c := range ix.CompletedPublic() {
		value, ok := report.PerContract[c.ID]
		if !ok {
			continue
		}
		m := dataset.MonthOf(completedAt(c))
		arr := t.ByType[c.Type]
		arr[m] += value
		t.ByType[c.Type] = arr
		for mask := oblig[i].meths(); mask != 0; mask &= mask - 1 {
			meth := textmine.Methods[trailingBit(mask)]
			if topM[meth] {
				a := t.ByMethod[meth]
				a[m] += value
				t.ByMethod[meth] = a
			}
		}
		for mask := oblig[i].cats(); mask != 0; mask &= mask - 1 {
			cat := textmine.Categories[trailingBit(mask)]
			if topC[cat] {
				a := t.ByCategory[cat]
				a[m] += value
				t.ByCategory[cat] = a
			}
		}
	}
	return t
}
