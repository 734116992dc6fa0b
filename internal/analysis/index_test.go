package analysis

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/market"
	"turnup/internal/textmine"
)

// scanGroups is the row-scan reference the Index groups are pinned to:
// each group derived straight from the rows' own times and flags, one
// filter at a time, as the stages did before the Index.
type scanGroups struct {
	byMonth, completedByMonth  [dataset.NumMonths][]*forum.Contract
	completed, completedPublic []*forum.Contract
	inEra                      [dataset.NumEras][]*forum.Contract
}

func scanReference(d *dataset.Dataset) scanGroups {
	var r scanGroups
	for _, c := range d.Contracts {
		m := dataset.MonthOf(c.Created)
		r.byMonth[m] = append(r.byMonth[m], c)
		if c.IsComplete() {
			at := c.Completed
			if at.IsZero() {
				at = c.Created
			}
			cm := dataset.MonthOf(at)
			r.completedByMonth[cm] = append(r.completedByMonth[cm], c)
			r.completed = append(r.completed, c)
		}
		if c.Public && c.IsComplete() {
			r.completedPublic = append(r.completedPublic, c)
		}
		e := dataset.EraOf(c.Created)
		r.inEra[e] = append(r.inEra[e], c)
	}
	return r
}

// TestIndexMatchesDatasetScans pins every index group to the ad-hoc
// row scan it replaced.
func TestIndexMatchesDatasetScans(t *testing.T) {
	d := corpus(t)
	ix := NewIndex(d)
	ref := scanReference(d)

	if !reflect.DeepEqual(ix.ByMonth(), ref.byMonth) {
		t.Error("ByMonth diverges from the row scan")
	}
	if !reflect.DeepEqual(ix.CompletedByMonth(), ref.completedByMonth) {
		t.Error("CompletedByMonth diverges from the row scan")
	}
	if !reflect.DeepEqual(ix.Completed(), ref.completed) {
		t.Error("Completed diverges from the row scan")
	}
	if !reflect.DeepEqual(ix.CompletedPublic(), ref.completedPublic) {
		t.Error("CompletedPublic diverges from the row scan")
	}
	for _, e := range dataset.Eras {
		if !reflect.DeepEqual(ix.InEra(e), ref.inEra[e]) {
			t.Errorf("InEra(%v) diverges from the row scan", e)
		}
	}

	users := ix.UserContracts()
	perUser := 0
	for u, cs := range users {
		perUser += len(cs)
		for _, c := range cs {
			if c.Maker != u && c.Taker != u {
				t.Fatalf("user %d listed for contract %d they are not party to", u, c.ID)
			}
		}
	}
	want := 0
	for _, c := range d.Contracts {
		want++
		if c.Taker != c.Maker {
			want++
		}
	}
	if perUser != want {
		t.Errorf("UserContracts holds %d entries, want %d", perUser, want)
	}
}

// TestIndexCategoriesMatchDirect verifies the obligation table holds
// exactly the masks of direct classification and the values of direct
// extraction, entry for entry, for every completed public contract.
func TestIndexCategoriesMatchDirect(t *testing.T) {
	d := corpus(t)
	ix := NewIndex(d)
	cs, oblig := ix.CompletedPublic(), ix.obligations()
	if len(oblig) != len(cs) {
		t.Fatalf("obligation table has %d entries for %d completed public contracts", len(oblig), len(cs))
	}
	for i, c := range cs {
		mc, mm := textmine.Classify(c.MakerObligation)
		tc, tm := textmine.Classify(c.TakerObligation)
		want := obligation{catMaskOf(mc), catMaskOf(tc), methMaskOf(mm), methMaskOf(tm),
			textmine.ExtractValues(c.MakerObligation), textmine.ExtractValues(c.TakerObligation)}
		if !reflect.DeepEqual(oblig[i], want) {
			t.Fatalf("contract %d: table entry %+v, direct %+v", c.ID, oblig[i], want)
		}
	}
}

// TestIndexConcurrentConstruction hammers every lazy group of a cold
// Index from many goroutines at once — the pattern the scheduler produces
// when multiple stages touch a new index simultaneously. Run under -race
// this pins the Index's once-guard; every goroutine must observe the one
// construction, and the racing build must agree with a serial one.
func TestIndexConcurrentConstruction(t *testing.T) {
	d := corpus(t)
	refOblig := NewIndex(d).obligations() // built serially, compared after the race
	for round := 0; round < 3; round++ {
		ix := NewIndex(d)
		const n = 16
		var seen [n]*corpusGroups
		var seenOblig [n]*obligation
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 7 {
				case 0:
					ix.ByMonth()
				case 1:
					ix.CompletedByMonth()
				case 2:
					ix.CompletedPublic()
				case 3:
					ix.InEra(dataset.EraStable)
				case 4:
					ix.UserContracts()
				case 5:
					ix.FirstEraOfUse()
				default:
					seenOblig[g] = &ix.obligations()[0]
				}
				seen[g] = ix.groups()
			}(g)
		}
		wg.Wait()

		for g := range seen {
			if seen[g] != seen[0] {
				t.Fatalf("round %d: goroutine %d observed a second group construction", round, g)
			}
			if seenOblig[g] != nil && seenOblig[g] != &ix.obligations()[0] {
				t.Fatalf("round %d: goroutine %d observed a second obligation table", round, g)
			}
		}
		if !reflect.DeepEqual(ix.obligations(), refOblig) {
			t.Fatalf("round %d: concurrent obligation build diverges from the serial one", round)
		}
	}
}

// TestTabulateHandComputed checks the shared Table 3/4 tabulator on four
// completed public contracts small enough to count by hand: a contract
// naming currency exchange and Bitcoin on the maker side only, one
// naming them on the taker side only, one naming giftcards on both
// sides with PayPal on the maker side, and one that names no bucket.
func TestTabulateHandComputed(t *testing.T) {
	d := dataset.New()
	for id := forum.UserID(1); id <= 6; id++ {
		d.Users[id] = &forum.User{ID: id, Joined: dataset.SetupStart}
	}
	at := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	add := func(id int, maker, taker forum.UserID, makerText, takerText string) {
		c, err := forum.NewContract(forum.ContractID(id), forum.Exchange, maker, taker, at, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{
			c.Accept(at.Add(time.Hour)),
			c.MarkComplete(forum.MakerParty, at.Add(2*time.Hour)),
			c.MarkComplete(forum.TakerParty, at.Add(3*time.Hour)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		c.MakerObligation, c.TakerObligation = makerText, takerText
		d.Contracts = append(d.Contracts, c)
	}
	const exchange, giftcard, nothing = "exchange my btc for your funds", "amazon giftcard via paypal", "a friendly handshake"
	add(1, 1, 2, exchange, nothing)
	add(2, 3, 1, nothing, exchange)
	add(3, 4, 5, giftcard, "amazon giftcard")
	add(4, 5, 6, nothing, nothing)
	ix := NewIndex(d)

	act := Activities(ix)
	row := func(mk, tk, both, mkUsers, tkUsers, bothUsers int) [3]SideCount {
		return [3]SideCount{{mk, mkUsers}, {tk, tkUsers}, {both, bothUsers}}
	}
	got := map[textmine.Category][3]SideCount{}
	for _, r := range act.Rows {
		got[r.Category] = [3]SideCount{r.Makers, r.Takers, r.Both}
	}
	want := map[textmine.Category][3]SideCount{
		// The taker-only exchange counts once in Both, with its taker.
		textmine.CurrencyExchange: row(1, 1, 2, 1, 1, 1),
		textmine.Giftcard:         row(1, 1, 1, 1, 1, 2),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Table 3 rows = %v, want %v", got, want)
	}
	// User 1 is on both exchanges, so the totals count three users on
	// either side; contract 4 names no bucket, so neither it nor user 6
	// touches a row or a total.
	if tot := [3]SideCount{act.Total.Makers, act.Total.Takers, act.Total.Both}; tot != row(2, 2, 3, 2, 2, 3) {
		t.Errorf("Table 3 total = %v", tot)
	}

	pay := PaymentMethods(ix)
	gotPay := map[textmine.Method][3]SideCount{}
	for _, r := range pay.Rows {
		gotPay[r.Method] = [3]SideCount{r.Makers, r.Takers, r.Both}
	}
	wantPay := map[textmine.Method][3]SideCount{
		textmine.MBitcoin:  row(1, 1, 2, 1, 1, 1),
		textmine.MAmazonGC: row(1, 1, 1, 1, 1, 2),
		textmine.MPayPal:   row(1, 0, 1, 1, 0, 1),
	}
	if !reflect.DeepEqual(gotPay, wantPay) {
		t.Errorf("Table 4 rows = %v, want %v", gotPay, wantPay)
	}
	if tot := [3]SideCount{pay.Total.Makers, pay.Total.Takers, pay.Total.Both}; tot != row(2, 2, 3, 2, 2, 3) {
		t.Errorf("Table 4 total = %v", tot)
	}
}

// TestIndexGroupsHandComputed checks the Index accessors on a corpus
// small enough to count by hand: a completed public sale in 2018-07
// (SET-UP), a completed private exchange in 2019-04 (STABLE), and an
// open public purchase in 2020-04 (COVID-19).
func TestIndexGroupsHandComputed(t *testing.T) {
	d := dataset.New()
	for id := forum.UserID(1); id <= 4; id++ {
		d.Users[id] = &forum.User{ID: id, Joined: dataset.SetupStart}
	}
	add := func(id int, typ forum.ContractType, maker, taker forum.UserID, created time.Time, public, complete bool) {
		c, err := forum.NewContract(forum.ContractID(id), typ, maker, taker, created, public)
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			for _, err := range []error{
				c.Accept(created.Add(time.Hour)),
				c.MarkComplete(forum.MakerParty, created.Add(2*time.Hour)),
				c.MarkComplete(forum.TakerParty, created.Add(3*time.Hour)),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Contracts = append(d.Contracts, c)
	}
	add(1, forum.Sale, 1, 2, time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC), true, true)
	add(2, forum.Exchange, 2, 3, time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC), false, true)
	add(3, forum.Purchase, 3, 4, time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC), true, false)
	ix := NewIndex(d)

	if n := len(ix.Completed()); n != 2 {
		t.Errorf("Completed = %d, want 2", n)
	}
	if n := len(ix.CompletedPublic()); n != 1 {
		t.Errorf("CompletedPublic = %d, want 1", n)
	}
	for e, want := range [dataset.NumEras]int{1, 1, 1} {
		if n := len(ix.InEra(dataset.Era(e))); n != want {
			t.Errorf("InEra(%v) = %d, want %d", dataset.Era(e), n, want)
		}
	}
	if n := len(ix.ByMonth()[dataset.MonthOf(time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC))]); n != 1 {
		t.Errorf("2018-07 bucket = %d, want 1", n)
	}
	total := 0
	for _, bucket := range ix.CompletedByMonth() {
		total += len(bucket)
	}
	if total != 2 {
		t.Errorf("CompletedByMonth total = %d, want 2", total)
	}
}

// BenchmarkIndexObligationBuild measures the cold group build and
// obligation classification that a suite run over a new corpus pays
// once, on the root package's bench corpus (seed 99, scale 0.05). Each
// iteration builds a fresh Index, which owns and builds its own groups.
func BenchmarkIndexObligationBuild(b *testing.B) {
	d, _, err := market.Generate(market.Config{Seed: 99, Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(d).obligations()
	}
}
