// Package fx provides deterministic historical exchange rates for every
// currency denomination the paper's value analysis encounters, over the
// study window June 2018 – June 2020.
//
// The paper converts contract values "to USD using the conversion rates at
// the time the transactions were made". The real rate feeds are external;
// this substitution ships a coarse monthly table whose crypto entries follow
// the real price trajectory (Bitcoin's 2018 slide, 2019 recovery, the March
// 2020 COVID crash and rebound), so relative value dynamics in Figure 11
// behave like the paper's.
package fx

import (
	"fmt"
	"time"
)

// Currency identifies a fiat or crypto denomination.
type Currency string

// Denominations known to the table. USD is the base currency.
const (
	USD Currency = "USD"
	GBP Currency = "GBP"
	EUR Currency = "EUR"
	CAD Currency = "CAD"
	AUD Currency = "AUD"
	INR Currency = "INR"
	JPY Currency = "JPY"
	BTC Currency = "BTC"
	ETH Currency = "ETH"
	BCH Currency = "BCH"
	LTC Currency = "LTC"
	XMR Currency = "XMR"
)

// monthIndex converts a time to months since June 2018 (the study start).
func monthIndex(t time.Time) int {
	return (t.Year()-2018)*12 + int(t.Month()) - 6
}

const studyMonths = 25 // 2018-06 .. 2020-06 inclusive

// Table holds USD-per-unit rates for each currency by study month.
type Table struct {
	rates map[Currency][]float64 // length studyMonths
}

// Default returns the built-in rate table.
func Default() *Table {
	t := &Table{rates: make(map[Currency][]float64)}
	t.rates[USD] = constant(1)
	t.rates[GBP] = constant(1.29)
	t.rates[EUR] = constant(1.13)
	t.rates[CAD] = constant(0.75)
	t.rates[AUD] = constant(0.70)
	t.rates[INR] = constant(0.014)
	t.rates[JPY] = constant(0.0092)
	// Crypto trajectories, one value per study month 2018-06 .. 2020-06.
	t.rates[BTC] = []float64{
		6500, 7400, 7000, 6600, 6400, 5600, 3700, // 2018-06..12
		3600, 3700, 3900, 5200, 8000, 9500, 10500, 10800, 9700, 8300, 8800, 7200, // 2019-01..12
		8500, 9300, 5900, 6900, 8800, 9400, // 2020-01..06 (COVID crash in March)
	}
	t.rates[ETH] = []float64{
		520, 460, 410, 220, 200, 180, 110,
		105, 120, 135, 160, 250, 290, 280, 220, 180, 175, 150, 130,
		155, 220, 130, 170, 210, 230,
	}
	t.rates[BCH] = []float64{
		900, 780, 620, 520, 440, 390, 160,
		125, 130, 160, 280, 390, 420, 320, 310, 300, 230, 270, 200,
		350, 370, 220, 240, 240, 245,
	}
	t.rates[LTC] = []float64{
		95, 82, 62, 58, 52, 45, 30,
		32, 44, 59, 75, 95, 130, 95, 75, 65, 56, 58, 42,
		56, 70, 39, 43, 44, 46,
	}
	t.rates[XMR] = []float64{
		125, 135, 105, 112, 105, 90, 47,
		48, 50, 52, 66, 85, 95, 82, 82, 72, 58, 62, 46,
		62, 75, 48, 54, 62, 66,
	}
	return t
}

func constant(v float64) []float64 {
	out := make([]float64, studyMonths)
	for i := range out {
		out[i] = v
	}
	return out
}

// Rate returns the USD value of one unit of c at time at. Times before the
// study window clamp to its first month and after to its last, so callers
// slightly outside the window (e.g. completion a few days past collection)
// still convert.
func (t *Table) Rate(c Currency, at time.Time) (float64, error) {
	series, ok := t.rates[c]
	if !ok {
		return 0, fmt.Errorf("fx: unknown currency %q", c)
	}
	idx := monthIndex(at)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(series) {
		idx = len(series) - 1
	}
	return series[idx], nil
}

// ToUSD converts an amount of currency c at time at into USD.
func (t *Table) ToUSD(amount float64, c Currency, at time.Time) (float64, error) {
	r, err := t.Rate(c, at)
	if err != nil {
		return 0, err
	}
	return amount * r, nil
}

// ParseCurrency maps common denomination spellings (case-insensitive
// symbols and names) to a Currency, reporting ok=false for unknown ones.
func ParseCurrency(s string) (Currency, bool) {
	switch s {
	case "usd", "USD", "$", "dollar", "dollars", "bucks":
		return USD, true
	case "gbp", "GBP", "£", "pound", "pounds", "quid":
		return GBP, true
	case "eur", "EUR", "€", "euro", "euros":
		return EUR, true
	case "cad", "CAD":
		return CAD, true
	case "aud", "AUD":
		return AUD, true
	case "inr", "INR", "rupee", "rupees":
		return INR, true
	case "jpy", "JPY", "yen":
		return JPY, true
	case "btc", "BTC", "bitcoin", "Bitcoin", "₿":
		return BTC, true
	case "eth", "ETH", "ethereum", "Ethereum":
		return ETH, true
	case "bch", "BCH":
		return BCH, true
	case "ltc", "LTC", "litecoin":
		return LTC, true
	case "xmr", "XMR", "monero", "Monero":
		return XMR, true
	}
	return "", false
}
