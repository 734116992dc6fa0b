package textmine

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzExtractValues ensures arbitrary text never panics the extractor and
// always yields non-negative, denominated amounts.
func FuzzExtractValues(f *testing.F) {
	for _, seed := range []string{
		"exchanging $100 btc for $105 paypal",
		"£20 or €15 or 0.004 BTC",
		"$2k budget... 99.99usd",
		"$", "$$$$$", "0.0.0.0 btc", "9999999999999999999999 usd",
		"£", "100 100 100", "selling\tstuff\nnewline",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, m := range ExtractValues(text) {
			if m.Amount < 0 {
				t.Fatalf("negative amount %v from %q", m.Amount, text)
			}
			if m.Currency == "" {
				t.Fatalf("empty currency from %q", text)
			}
		}
	})
}

// FuzzCategorize ensures the categoriser never panics and always returns a
// non-empty, duplicate-free category list.
func FuzzCategorize(f *testing.F) {
	for _, seed := range []string{
		"selling netflix account", "vouch copy", "", "   ",
		"BITCOIN CASH bitcoin", "essay essay essay", "a$b£c€d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cats := Categorize(text)
		if len(cats) == 0 {
			t.Fatalf("no categories for %q", text)
		}
		seen := map[Category]bool{}
		for _, c := range cats {
			if seen[c] {
				t.Fatalf("duplicate category %v for %q", c, text)
			}
			seen[c] = true
		}
	})
}

// classifyMatchesRegex fails t unless the keyword scan and the regex-era
// reference classifier agree on text's categories and methods.
func classifyMatchesRegex(t *testing.T, text string) {
	t.Helper()
	cats, methods := Classify(text)
	wantCats, wantMethods := refClassify(text)
	if !reflect.DeepEqual(cats, wantCats) || !reflect.DeepEqual(methods, wantMethods) {
		t.Fatalf("Classify(%q) = %v %v, regex reference %v %v", text, cats, methods, wantCats, wantMethods)
	}
}

// FuzzClassifyMatchesRegex requires the keyword scan to classify every
// input exactly as the regular expressions it replaced did.
func FuzzClassifyMatchesRegex(f *testing.F) {
	for _, seed := range concurrencyTexts {
		f.Add(seed)
	}
	for _, seed := range []string{
		"_rat", "rat_", "9rat", "raté", "advertisement", "cs go",
		"video editing", "bitcoin cash btc", "bch bitcoin",
		"bitcoin cash or bitcoin cash",
	} {
		f.Add(seed)
	}
	f.Fuzz(classifyMatchesRegex)
}

// valueSeeds are inputs at the edges of the value patterns: the
// multi-byte symbols, invalid UTF-8, a \v that \s does not cover, a
// crypto amount starting at a "." after a word byte, a "k" that fails its
// \b, a fraction with no digits, the eth/ethereum and dollar/dollars
// alternatives, overlapping readings and a number too large to parse.
var valueSeeds = []string{
	"£20 or €15 or 0.004 BTC", "£ 5k", "€5.5kx", "\xc2$5", "\xe2\x82\xac7 eur",
	"\xff5 btc", "$\v5", "5\vbtc", "\v 5 usd \v", "a.5 btc", "x.5btc", ".5 btc",
	"$5kx", "$5.5x", "$5.5k", "12. btc", "1..5 btc", "3 ethereum", "3 eth",
	"3 etherium", "10 dollars", "10 dollar", "10 dollarsx", "2k usd", "2 k usd",
	"2.5k euros", "$100 btc", "100 btc $5", "5 usd5 usd", "1e5 usd",
	"$" + strings.Repeat("9", 400), strings.Repeat("9", 400) + " btc",
	"gift card 5 usd_", "BTC 5 BTC", "$5\t$6",
}

// FuzzNormalizeMatchesRegex requires the one-pass Normalize to produce
// exactly what the regular-expression normaliser it replaced did.
func FuzzNormalizeMatchesRegex(f *testing.F) {
	for _, seed := range append(valueSeeds, concurrencyTexts...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Normalize(text), refNormalize(text); got != want {
			t.Fatalf("Normalize(%q) = %q, regex reference %q", text, got, want)
		}
	})
}

// FuzzExtractValuesMatchesRegex requires the value scanners to extract
// exactly what the regular expressions they replaced did: through
// ExtractValues, and applied straight to the raw input, which may hold
// upper case, delimiters and every \s byte.
func FuzzExtractValuesMatchesRegex(f *testing.F) {
	for _, seed := range valueSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := ExtractValues(text), refExtractValues(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("ExtractValues(%q) = %v, regex reference %v", text, got, want)
		}
		if got, want := valuesFromNorm(text), refValuesFromNorm(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("valuesFromNorm(%q) = %v, regex reference %v", text, got, want)
		}
	})
}

// TestClassifyMatchesRegexAtWordEdges puts every keyword of every rule,
// once and twice, between neighbours on each side of RE2's \b (word
// bytes, non-word ASCII, a non-ASCII letter and space, invalid UTF-8, the
// ends of the text) and requires the regex-era answer.
func TestClassifyMatchesRegexAtWordEdges(t *testing.T) {
	var words []string
	for _, r := range catRules {
		words = append(words, r.words...)
	}
	for _, r := range methodRules {
		words = append(words, r.words...)
	}
	edges := []string{"", " ", "-", "_", "9", "s", "é", "\xff", "\u00a0"}
	for _, w := range words {
		w = strings.TrimSuffix(w, "*")
		for _, l := range edges {
			for _, r := range edges {
				classifyMatchesRegex(t, l+w+r)
				classifyMatchesRegex(t, l+w+r+w+r)
				classifyMatchesRegex(t, "bitcoin cash "+l+w+r+" for btc")
			}
		}
	}
}
