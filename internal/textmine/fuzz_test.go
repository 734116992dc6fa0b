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
