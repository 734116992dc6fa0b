package textmine_test

import (
	"reflect"
	"testing"

	"turnup/internal/market"
	"turnup/internal/textmine"
)

// corpusTexts returns every distinct obligation text of a generated
// corpus, in first-appearance order.
func corpusTexts(tb testing.TB, seed uint64, scale float64) []string {
	tb.Helper()
	d, _, err := market.Generate(market.Config{Seed: seed, Scale: scale})
	if err != nil {
		tb.Fatal(err)
	}
	seen := map[string]bool{}
	var texts []string
	for _, c := range d.Contracts {
		for _, text := range []string{c.MakerObligation, c.TakerObligation} {
			if !seen[text] {
				seen[text] = true
				texts = append(texts, text)
			}
		}
	}
	return texts
}

// TestClassifyMatchesRegexOnCorpora requires the keyword scan to classify
// every distinct obligation text of two generated corpora exactly as the
// regex-era rules did.
func TestClassifyMatchesRegexOnCorpora(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		texts := corpusTexts(t, seed, 0.05)
		for _, text := range texts {
			cats, methods := textmine.Classify(text)
			wantCats, wantMethods := textmine.RefClassify(text)
			if !reflect.DeepEqual(cats, wantCats) || !reflect.DeepEqual(methods, wantMethods) {
				t.Fatalf("seed %d: Classify(%q) = %v %v, regex reference %v %v",
					seed, text, cats, methods, wantCats, wantMethods)
			}
		}
		t.Logf("seed %d: %d distinct texts agree", seed, len(texts))
	}
}

// TestMineMatchesRegexOnCorpora requires Normalize and ExtractValues to
// give every distinct obligation text of two generated corpora exactly
// the regex-era output, and Mine to return Classify's and
// ExtractValues' results.
func TestMineMatchesRegexOnCorpora(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		texts := corpusTexts(t, seed, 0.05)
		withValues := 0
		for _, text := range texts {
			if got, want := textmine.Normalize(text), textmine.RefNormalize(text); got != want {
				t.Fatalf("seed %d: Normalize(%q) = %q, regex reference %q", seed, text, got, want)
			}
			vals := textmine.ExtractValues(text)
			if want := textmine.RefExtractValues(text); !reflect.DeepEqual(vals, want) {
				t.Fatalf("seed %d: ExtractValues(%q) = %v, regex reference %v", seed, text, vals, want)
			}
			cats, methods, mined := textmine.Mine(text)
			wantCats, wantMethods := textmine.Classify(text)
			if !reflect.DeepEqual(cats, wantCats) || !reflect.DeepEqual(methods, wantMethods) || !reflect.DeepEqual(mined, vals) {
				t.Fatalf("seed %d: Mine(%q) = %v %v %v, want %v %v %v", seed, text, cats, methods, mined, wantCats, wantMethods, vals)
			}
			if len(vals) > 0 {
				withValues++
			}
		}
		if withValues == 0 {
			t.Fatalf("seed %d: no text quotes a value", seed)
		}
		t.Logf("seed %d: %d distinct texts agree, %d quote values", seed, len(texts), withValues)
	}
}

// BenchmarkClassifyCorpus classifies each distinct obligation text of a
// generated corpus once per iteration, as the analysis index does.
func BenchmarkClassifyCorpus(b *testing.B) {
	texts := corpusTexts(b, 1, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			classifySink, _ = textmine.Classify(text)
		}
	}
}

var classifySink []textmine.Category

// Categoriser ablation (DESIGN.md §6): the keyword rules against the
// exact-token baseline, on the maker obligation of every completed public
// contract of the shared bench corpus. The "Regex" benchmark keeps its
// name, from before the rules became a keyword scan equivalent to their
// regular expressions, so results compare across versions.
func ablationTexts(b *testing.B) []string {
	b.Helper()
	d, _, err := market.Generate(market.Config{Seed: 99, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	var texts []string
	for _, c := range d.Contracts {
		if c.Public && c.IsComplete() && c.MakerObligation != "" {
			texts = append(texts, c.MakerObligation)
		}
	}
	if len(texts) == 0 {
		b.Fatal("no obligation texts")
	}
	return texts
}

func BenchmarkAblationCategoriserRegex(b *testing.B) {
	texts := ablationTexts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classifySink = textmine.Categorize(texts[i%len(texts)])
	}
}

func BenchmarkAblationCategoriserTokens(b *testing.B) {
	texts := ablationTexts(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classifySink = textmine.TokenClassify(texts[i%len(texts)])
	}
}
