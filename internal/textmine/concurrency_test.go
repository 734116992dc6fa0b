package textmine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

var concurrencyTexts = []string{
	"selling btc for paypal, $50",
	"EXCHANGE: 0.5 bitcoin cash for amazon giftcard",
	"will vouch copy this thread",
	"fortnite account with 1000 vbucks, skins included",
	"netflix/spotify accounts, bulk discount, venmo or cashapp",
	"ddos service, booter access for a month",
	"need someone to boost my league account to diamond",
	"random untagged obligation text with no category at all",
}

// TestClassifyMatchesSeparateCalls pins the single-normalisation Classify
// to the two calls it fuses: the index layer depends on this equivalence.
func TestClassifyMatchesSeparateCalls(t *testing.T) {
	for _, text := range concurrencyTexts {
		cats, methods := Classify(text)
		if want := Categorize(text); !reflect.DeepEqual(cats, want) {
			t.Errorf("Classify(%q) categories %v, Categorize %v", text, cats, want)
		}
		if want := PaymentMethods(text); !reflect.DeepEqual(methods, want) {
			t.Errorf("Classify(%q) methods %v, PaymentMethods %v", text, methods, want)
		}
	}
}

// TestCategorizeConcurrent hammers the categoriser from many goroutines.
// The keyword rule tables are package-level slices shared by every
// caller — under -race this pins that classification only reads them,
// so it is safe to run from concurrent suite stages.
func TestCategorizeConcurrent(t *testing.T) {
	want := make([][]Category, len(concurrencyTexts))
	for i, text := range concurrencyTexts {
		want[i] = Categorize(text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, text := range concurrencyTexts {
					if got := Categorize(text); !reflect.DeepEqual(got, want[i]) {
						panic(fmt.Sprintf("concurrent Categorize(%q) = %v, want %v", text, got, want[i]))
					}
					Classify(text)
					PaymentMethods(text)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkClassifyFused measures the one-normalisation fused path the
// index memoizes, against the two separate calls it replaces.
func BenchmarkClassifyFused(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Classify(concurrencyTexts[i%len(concurrencyTexts)])
	}
}

func BenchmarkClassifySeparate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		text := concurrencyTexts[i%len(concurrencyTexts)]
		Categorize(text)
		PaymentMethods(text)
	}
}
