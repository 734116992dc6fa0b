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
