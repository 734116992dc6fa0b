package textmine

import (
	"reflect"
	"testing"

	"turnup/internal/fx"
)

func hasCat(cs []Category, want Category) bool {
	for _, c := range cs {
		if c == want {
			return true
		}
	}
	return false
}

func hasMethod(ms []Method, want Method) bool {
	for _, m := range ms {
		if m == want {
			return true
		}
	}
	return false
}

func TestNormalize(t *testing.T) {
	got := Normalize("Selling: MY *Gift Card* (Amazon)!!")
	if got != "selling my giftcard amazon" {
		t.Errorf("Normalize = %q", got)
	}
}

func TestNormalizeSynonyms(t *testing.T) {
	cases := map[string]string{
		"Cash App transfer":  "cashapp transfer",
		"e-whoring pack":     "ewhoring pack",
		"V-Bucks for sale":   "vbucks for sale",
		"remote access tool": "rat",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCategorizeCore(t *testing.T) {
	cases := []struct {
		text string
		want Category
	}{
		{"exchanging $100 BTC for $105 PayPal", CurrencyExchange},
		{"sending a $30 paypal payment", Payments},
		{"$25 amazon giftcard for btc", Giftcard},
		{"selling netflix account lifetime", Accounts},
		{"buying fortnite account", Gaming},
		{"selling 500k bytes", HackforumsGoods},
		{"vouch copy of my ebook", HackforumsGoods},
		{"custom python script for scraping", Hacking},
		{"1000 instagram followers boost", SocialBoost},
		{"youtube method tutorial", Tutorials},
		{"selling my checker tool", Tools},
		{"professional logo design service", Multimedia},
		{"ewhoring pack 800 pics", EWhoring},
		{"discounted shipping label service", Shipping},
		{"essay and homework writing help", Academic},
		{"seo and web traffic promotion", Marketing},
		{"win my giveaway contest entry", Contest},
	}
	for _, c := range cases {
		got := Categorize(c.text)
		if !hasCat(got, c.want) {
			t.Errorf("Categorize(%q) = %v, want %v included", c.text, got, c.want)
		}
	}
}

func TestCategorizeMultiLabel(t *testing.T) {
	// The paper's example: "buying fortnite account" is both gaming-related
	// and account/license.
	got := Categorize("buying fortnite account")
	if !hasCat(got, Gaming) || !hasCat(got, Accounts) {
		t.Errorf("multi-label failed: %v", got)
	}
}

func TestCategorizeImplicitExchange(t *testing.T) {
	// Two payment methods joined by "for" without an exchange verb.
	got := Categorize("$50 paypal for $48 btc")
	if !hasCat(got, CurrencyExchange) {
		t.Errorf("implicit exchange not detected: %v", got)
	}
}

func TestCategorizeUncategorised(t *testing.T) {
	for _, text := range []string{"", "stuff", "the thing we discussed"} {
		got := Categorize(text)
		if len(got) != 1 || got[0] != Uncategorised {
			t.Errorf("Categorize(%q) = %v", text, got)
		}
	}
}

func TestPaymentMethods(t *testing.T) {
	cases := []struct {
		text string
		want Method
	}{
		{"paying with bitcoin", MBitcoin},
		{"0.01 BTC", MBitcoin},
		{"$50 PayPal", MPayPal},
		{"amazon gc 25", MAmazonGC},
		{"cash app only", MCashapp},
		{"100 usd cash", MUSD},
		{"0.5 eth", MEthereum},
		{"venmo accepted", MVenmo},
		{"2000 v-bucks", MVBucks},
		{"zelle transfer", MZelle},
		{"litecoin ok", MLitecoin},
		{"monero preferred", MMonero},
		{"apple pay or google pay", MApplePay},
		{"skrill balance", MSkrill},
	}
	for _, c := range cases {
		got := PaymentMethods(c.text)
		if !hasMethod(got, c.want) {
			t.Errorf("PaymentMethods(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestBitcoinCashNotDoubleCounted(t *testing.T) {
	got := PaymentMethods("selling bitcoin cash")
	if !hasMethod(got, MBitcoinCash) {
		t.Errorf("BCH missed: %v", got)
	}
	if hasMethod(got, MBitcoin) {
		t.Errorf("BCH double-counted as Bitcoin: %v", got)
	}
	// But genuine dual mentions keep both.
	both := PaymentMethods("exchange bitcoin for bitcoin cash")
	if !hasMethod(both, MBitcoin) || !hasMethod(both, MBitcoinCash) {
		t.Errorf("dual mention lost one: %v", both)
	}
}

func TestExtractValuesSymbols(t *testing.T) {
	got := ExtractValues("selling for $100 or £20 or €15")
	want := []Money{{100, fx.USD}, {20, fx.GBP}, {15, fx.EUR}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractValues = %v, want %v", got, want)
	}
}

func TestExtractValuesCrypto(t *testing.T) {
	got := ExtractValues("sending 0.05 BTC and 1.2 eth")
	want := []Money{{0.05, fx.BTC}, {1.2, fx.ETH}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractValues = %v, want %v", got, want)
	}
}

func TestExtractValuesFiatCodes(t *testing.T) {
	got := ExtractValues("price is 150 USD or 120 gbp")
	want := []Money{{150, fx.USD}, {120, fx.GBP}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractValues = %v, want %v", got, want)
	}
}

func TestExtractValuesKSuffix(t *testing.T) {
	got := ExtractValues("$2k budget")
	if len(got) != 1 || got[0].Amount != 2000 || got[0].Currency != fx.USD {
		t.Errorf("ExtractValues = %v", got)
	}
}

func TestExtractValuesDecimal(t *testing.T) {
	got := ExtractValues("$99.99 deal")
	if len(got) != 1 || got[0].Amount != 99.99 {
		t.Errorf("ExtractValues = %v", got)
	}
}

func TestExtractValuesNone(t *testing.T) {
	if got := ExtractValues("dissertation help needed"); len(got) != 0 {
		t.Errorf("ExtractValues = %v", got)
	}
}

func TestExtractValuesMixed(t *testing.T) {
	got := ExtractValues("exchanging $1000 paypal for 0.11 btc")
	if len(got) != 2 {
		t.Fatalf("ExtractValues = %v", got)
	}
	if got[0].Currency != fx.USD || got[0].Amount != 1000 {
		t.Errorf("first = %v", got[0])
	}
	if got[1].Currency != fx.BTC || got[1].Amount != 0.11 {
		t.Errorf("second = %v", got[1])
	}
}

func TestCategorizeIsDeterministic(t *testing.T) {
	text := "exchanging $100 BTC for amazon giftcard plus fortnite skins"
	a := Categorize(text)
	b := Categorize(text)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}
