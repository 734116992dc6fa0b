package chain

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2019, 5, 1, 12, 0, 0, 0, time.UTC)

func tx(hash string, addr Address, usd float64, at time.Time) Tx {
	return Tx{Hash: hash, From: "1sender", To: addr, ValueUSD: usd, Time: at}
}

func TestRecordAndLookup(t *testing.T) {
	l := NewLedger()
	if err := l.Record(tx("aa", "1x", 100, t0)); err != nil {
		t.Fatal(err)
	}
	got, ok := l.LookupHash("aa")
	if !ok || got.ValueUSD != 100 {
		t.Fatalf("LookupHash = %+v, %v", got, ok)
	}
	if _, ok := l.LookupHash("zz"); ok {
		t.Error("found nonexistent hash")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestRecordRejectsDuplicatesAndBadTx(t *testing.T) {
	l := NewLedger()
	if err := l.Record(tx("aa", "1x", 100, t0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(tx("aa", "1y", 50, t0)); err == nil {
		t.Error("duplicate hash accepted")
	}
	if err := l.Record(tx("", "1y", 50, t0)); err == nil {
		t.Error("empty hash accepted")
	}
	if err := l.Record(tx("bb", "1y", -5, t0)); err == nil {
		t.Error("negative value accepted")
	}
}

func TestVerifyHash(t *testing.T) {
	l := NewLedger()
	if err := l.Record(tx("h1", "1x", 1000, t0)); err != nil {
		t.Fatal(err)
	}
	if v := l.VerifyHash("h1", 1050, 0.1); v.Verdict != Confirmed {
		t.Errorf("within tolerance: %v", v.Verdict)
	}
	if v := l.VerifyHash("h1", 200, 0.1); v.Verdict != Mismatch || v.ActualUSD != 1000 {
		t.Errorf("out of tolerance: %+v", v)
	}
	if v := l.VerifyHash("nope", 200, 0.1); v.Verdict != NotFound {
		t.Errorf("missing hash: %v", v.Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	if Confirmed.String() != "confirmed" || Mismatch.String() != "mismatch" || NotFound.String() != "not-found" {
		t.Error("verdict strings wrong")
	}
}

func TestHashFromDeterministicAndDistinct(t *testing.T) {
	h1 := HashFrom(1, 2)
	h2 := HashFrom(1, 2)
	h3 := HashFrom(2, 1)
	if h1 != h2 {
		t.Error("HashFrom not deterministic")
	}
	if h1 == h3 {
		t.Error("HashFrom collision on swapped words")
	}
	if len(h1) != 64 {
		t.Errorf("hash length = %d", len(h1))
	}
	for _, c := range h1 {
		if !strings.ContainsRune(hashAlphabet, c) {
			t.Errorf("non-hex char %q", c)
		}
	}
}

func TestAddressFrom(t *testing.T) {
	a := AddressFrom(42)
	if a != AddressFrom(42) {
		t.Error("AddressFrom not deterministic")
	}
	if a == AddressFrom(43) {
		t.Error("adjacent seeds collide")
	}
	if a[0] != '1' {
		t.Errorf("address prefix = %q", a[0])
	}
}

func TestLedgerConcurrentAccess(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := HashFrom(uint64(g), uint64(i))
				if err := l.Record(tx(h, AddressFrom(uint64(g)), float64(i), t0)); err != nil {
					t.Error(err)
					return
				}
				l.LookupHash(h)
				l.VerifyHash(h, float64(i), 0.05)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", l.Len())
	}
}
