package textmine

import (
	"slices"
	"strconv"
	"strings"

	"turnup/internal/fx"
)

// Money is one extracted value mention: an amount in a denomination.
type Money struct {
	Amount   float64
	Currency fx.Currency
}

// ExtractValues pulls every quoted value with its denomination out of the
// obligation text, per the paper's §4.5 extraction: currency symbols
// ("$100", "£20"), fiat codes ("100 usd", "20k inr"), and crypto amounts
// ("0.05 btc"). Amounts suffixed with "k" are scaled by 1000.
//
// Symbol-prefixed amounts take precedence: "$100 btc" means one hundred
// dollars' worth of Bitcoin, so the trailing "100 btc" crypto reading is
// suppressed. Mentions are returned in order of appearance.
func ExtractValues(text string) []Money {
	return valuesFromNorm(Normalize(text))
}

// The value patterns, as regular expressions over the normalised text
// (RE2 syntax, leftmost-first; \s is [\t\n\f\r ] and \b is ASCII):
//
//	symbol: ([$£€])\s?([0-9]+(?:\.[0-9]+)?)(k?)\b
//	crypto: \b([0-9]*\.?[0-9]+)\s?(btc|bitcoin|eth|ethereum|ltc|litecoin|xmr|monero|bch)\b
//	fiat:   \b([0-9]+(?:\.[0-9]+)?)(k?)\s?(usd|dollars?|gbp|pounds?|eur|euros?|cad|aud|inr|jpy|yen)\b
//
// Each pattern's matches are found left to right without overlap, as
// regexp's FindAll does, by a scanner that takes the match those
// expressions take at each start. The expressions themselves are the
// test-only reference the scanners are held to.

// A unit is one alternative of a pattern's currency group with the
// currency it names. symbols, cryptoUnits and fiatUnits list them in the
// order leftmost-first matching tries them: "dollars?" tries "dollars"
// before "dollar".
type unit struct {
	word string
	cur  fx.Currency
}

var (
	symbols     = []unit{{"$", fx.USD}, {"£", fx.GBP}, {"€", fx.EUR}}
	cryptoUnits = []unit{
		{"btc", fx.BTC}, {"bitcoin", fx.BTC}, {"eth", fx.ETH}, {"ethereum", fx.ETH},
		{"ltc", fx.LTC}, {"litecoin", fx.LTC}, {"xmr", fx.XMR}, {"monero", fx.XMR}, {"bch", fx.BCH},
	}
	fiatUnits = []unit{
		{"usd", fx.USD}, {"dollars", fx.USD}, {"dollar", fx.USD}, {"gbp", fx.GBP},
		{"pounds", fx.GBP}, {"pound", fx.GBP}, {"eur", fx.EUR}, {"euros", fx.EUR},
		{"euro", fx.EUR}, {"cad", fx.CAD}, {"aud", fx.AUD}, {"inr", fx.INR},
		{"jpy", fx.JPY}, {"yen", fx.JPY},
	}
)

// valueMatch is one pattern match: its byte span, the amount as quoted
// (without any "k"), whether a "k" followed it, and the currency its
// symbol or unit names.
type valueMatch struct {
	start, end int
	amount     string
	kilo       bool
	cur        fx.Currency
}

// valuesFromNorm extracts the quoted values of normalised text. The
// patterns run in precedence order (symbol, crypto, fiat); a match whose
// amount parses claims its bytes, and a match overlapping an earlier
// claim is dropped. The kept mentions are then put in text order.
func valuesFromNorm(s string) []Money {
	var kept []mention
	for _, scan := range [...]func(string, int) (valueMatch, bool){symbolAt, cryptoAt, fiatAt} {
		for i := 0; i < len(s); {
			m, ok := scan(s, i)
			if !ok {
				i++
				continue
			}
			i = m.end
			amt, err := strconv.ParseFloat(m.amount, 64)
			if err != nil || overlaps(kept, m) {
				continue
			}
			if m.kilo {
				amt *= 1000
			}
			kept = append(kept, mention{m.start, m.end, Money{Amount: amt, Currency: m.cur}})
		}
	}
	if len(kept) == 0 {
		return nil
	}
	slices.SortFunc(kept, func(a, b mention) int { return a.start - b.start })
	out := make([]Money, len(kept))
	for i, k := range kept {
		out[i] = k.money
	}
	return out
}

// mention is a kept value and the bytes its match claimed.
type mention struct {
	start, end int
	money      Money
}

// overlaps reports whether m shares a byte with a kept mention's match.
func overlaps(kept []mention, m valueMatch) bool {
	for _, k := range kept {
		if m.start < k.end && k.start < m.end {
			return true
		}
	}
	return false
}

// symbolAt matches the symbol pattern at byte i. The digit runs are
// greedy, and the amount is tried with its fraction and then without it.
// An amount followed by "k" matches only with a \b after the "k" (the \b
// between a digit and the "k" fails); any other amount needs a \b right
// after it, which a following "." always gives.
func symbolAt(s string, i int) (valueMatch, bool) {
	if c := s[i]; c != '$' && c != "£"[0] && c != "€"[0] {
		return valueMatch{}, false
	}
	sym, j := unitAt(s, i, symbols, false)
	if j < 0 {
		return valueMatch{}, false
	}
	j = skipSpace(s, j)
	intEnd := digitsEnd(s, j)
	if intEnd == j {
		return valueMatch{}, false
	}
	ends := []int{intEnd}
	if intEnd+1 < len(s) && s[intEnd] == '.' && isDigit(s[intEnd+1]) {
		ends = []int{digitsEnd(s, intEnd+1), intEnd}
	}
	for _, e := range ends {
		if e < len(s) && s[e] == 'k' {
			if boundary(s, e+1) {
				return valueMatch{start: i, end: e + 1, amount: s[j:e], kilo: true, cur: sym.cur}, true
			}
		} else if boundary(s, e) {
			return valueMatch{start: i, end: e, amount: s[j:e], cur: sym.cur}, true
		}
	}
	return valueMatch{}, false
}

// cryptoAt matches the crypto pattern at byte i. The amount is an
// optional digit run and, when a "." follows it, the "." and a digit run:
// a unit never starts with a digit or ".", so only the longest such
// amount can be followed by one.
func cryptoAt(s string, i int) (valueMatch, bool) {
	if !isDigit(s[i]) && s[i] != '.' || !boundary(s, i) {
		return valueMatch{}, false
	}
	e := digitsEnd(s, i)
	if e < len(s) && s[e] == '.' {
		if e+1 == len(s) || !isDigit(s[e+1]) {
			return valueMatch{}, false
		}
		e = digitsEnd(s, e+1)
	}
	u, end := unitAt(s, skipSpace(s, e), cryptoUnits, true)
	return valueMatch{start: i, end: end, amount: s[i:e], cur: u.cur}, end >= 0
}

// fiatAt matches the fiat pattern at byte i: an integer with an optional
// fraction, then an optional "k", then the unit. No unit starts with a
// digit, "." or "k", so only the longest amount and a present "k" can be
// followed by one.
func fiatAt(s string, i int) (valueMatch, bool) {
	if !isDigit(s[i]) || !boundary(s, i) {
		return valueMatch{}, false
	}
	e := digitsEnd(s, i)
	if e+1 < len(s) && s[e] == '.' && isDigit(s[e+1]) {
		e = digitsEnd(s, e+1)
	}
	m := valueMatch{start: i, amount: s[i:e]}
	if e < len(s) && s[e] == 'k' {
		m.kilo = true
		e++
	}
	u, end := unitAt(s, skipSpace(s, e), fiatUnits, true)
	m.end, m.cur = end, u.cur
	return m, end >= 0
}

// unitAt returns the first of units whose word starts at byte i of s,
// and ends at a \b when word is set, with the end of the word, or -1 for
// none.
func unitAt(s string, i int, units []unit, word bool) (unit, int) {
	for _, u := range units {
		if end := i + len(u.word); strings.HasPrefix(s[i:], u.word) && (!word || boundary(s, end)) {
			return u, end
		}
	}
	return unit{}, -1
}

// boundary reports whether RE2's ASCII \b holds before byte i of s.
func boundary(s string, i int) bool {
	return (i > 0 && isWordByte(s[i-1])) != (i < len(s) && isWordByte(s[i]))
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

// digitsEnd returns the end of the run of ASCII digits starting at byte i.
func digitsEnd(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// skipSpace steps over one \s byte at i, as \s? does before text that
// cannot start with one.
func skipSpace(s string, i int) int {
	if i < len(s) && isSpace(s[i]) {
		return i + 1
	}
	return i
}

// isSpace reports whether b is in RE2's \s class, [\t\n\f\r ].
func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\f' || b == '\r'
}
