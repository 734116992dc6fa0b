package fx

import (
	"testing"
	"time"
)

func at(y int, m time.Month) time.Time {
	return time.Date(y, m, 15, 12, 0, 0, 0, time.UTC)
}

func TestUSDIsBase(t *testing.T) {
	tab := Default()
	r, err := tab.Rate(USD, at(2019, time.March))
	if err != nil || r != 1 {
		t.Fatalf("USD rate = %v, %v", r, err)
	}
}

func TestAllSeriesCoverStudyWindow(t *testing.T) {
	tab := Default()
	for c, series := range tab.rates {
		if got := len(series); got != studyMonths {
			t.Errorf("%s has %d months, want %d", c, got, studyMonths)
		}
		for i, v := range series {
			if v <= 0 {
				t.Errorf("%s month %d has non-positive rate %v", c, i, v)
			}
		}
	}
}

func TestBTCTrajectoryShape(t *testing.T) {
	tab := Default()
	jun18, _ := tab.Rate(BTC, at(2018, time.June))
	dec18, _ := tab.Rate(BTC, at(2018, time.December))
	jun19, _ := tab.Rate(BTC, at(2019, time.June))
	mar20, _ := tab.Rate(BTC, at(2020, time.March))
	feb20, _ := tab.Rate(BTC, at(2020, time.February))
	jun20, _ := tab.Rate(BTC, at(2020, time.June))
	if dec18 >= jun18 {
		t.Error("BTC did not fall across H2 2018")
	}
	if jun19 <= dec18 {
		t.Error("BTC did not recover in 2019")
	}
	if mar20 >= feb20 {
		t.Error("BTC lacks the March 2020 COVID crash")
	}
	if jun20 <= mar20 {
		t.Error("BTC lacks the post-crash rebound")
	}
}

func TestRateClampsOutsideWindow(t *testing.T) {
	tab := Default()
	before, err := tab.Rate(BTC, at(2017, time.January))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := tab.Rate(BTC, at(2018, time.June))
	if before != first {
		t.Errorf("pre-window rate %v != first month %v", before, first)
	}
	after, _ := tab.Rate(BTC, at(2021, time.December))
	last, _ := tab.Rate(BTC, at(2020, time.June))
	if after != last {
		t.Errorf("post-window rate %v != last month %v", after, last)
	}
}

func TestToUSD(t *testing.T) {
	tab := Default()
	v, err := tab.ToUSD(2, GBP, at(2019, time.May))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*1.29 {
		t.Errorf("2 GBP = %v USD", v)
	}
}

func TestUnknownCurrency(t *testing.T) {
	tab := Default()
	if _, err := tab.Rate(Currency("DOGE"), at(2019, time.May)); err == nil {
		t.Error("unknown currency accepted")
	}
	if _, err := tab.ToUSD(1, Currency("DOGE"), at(2019, time.May)); err == nil {
		t.Error("ToUSD with unknown currency accepted")
	}
}

func TestParseCurrency(t *testing.T) {
	cases := map[string]Currency{
		"btc": BTC, "Bitcoin": BTC, "$": USD, "pounds": GBP,
		"eth": ETH, "monero": XMR, "yen": JPY,
	}
	for in, want := range cases {
		got, ok := ParseCurrency(in)
		if !ok || got != want {
			t.Errorf("ParseCurrency(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
	if _, ok := ParseCurrency("gold doubloons"); ok {
		t.Error("nonsense currency parsed")
	}
}

func TestMonthIndex(t *testing.T) {
	if idx := monthIndex(time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)); idx != 0 {
		t.Errorf("monthIndex(start) = %d", idx)
	}
	if idx := monthIndex(time.Date(2020, 6, 30, 0, 0, 0, 0, time.UTC)); idx != studyMonths-1 {
		t.Errorf("monthIndex(end) = %d, want %d", idx, studyMonths-1)
	}
}

func TestKnownAndCurrencies(t *testing.T) {
	tab := Default()
	if _, err := tab.Rate(BTC, at(2019, time.March)); err != nil {
		t.Errorf("BTC unknown: %v", err)
	}
	if _, err := tab.Rate(Currency("DOGE"), at(2019, time.March)); err == nil {
		t.Error("DOGE known")
	}
	if len(tab.rates) != 12 {
		t.Errorf("currencies = %d, want 12", len(tab.rates))
	}
}
