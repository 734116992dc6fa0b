package analysis

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/textmine"
)

// scanGroups is the row-scan reference the Index groups are pinned to:
// each group derived straight from the rows' own times and flags, with
// no columnar projection involved.
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

// TestIndexCategoriesMatchDirect verifies the memoized obligation table
// returns exactly what direct categorisation computes, for every
// completed public contract and for the direct-parse fallback outside
// the table.
func TestIndexCategoriesMatchDirect(t *testing.T) {
	d := corpus(t)
	ix := NewIndex(d)
	for _, c := range ix.CompletedPublic() {
		if got, want := ix.MakerCategories(c), textmine.Categorize(c.MakerObligation); !reflect.DeepEqual(got, want) {
			t.Fatalf("contract %d: maker categories %v, direct %v", c.ID, got, want)
		}
		if got, want := ix.TakerCategories(c), textmine.Categorize(c.TakerObligation); !reflect.DeepEqual(got, want) {
			t.Fatalf("contract %d: taker categories %v, direct %v", c.ID, got, want)
		}
		if got, want := ix.MakerMethods(c), textmine.PaymentMethods(c.MakerObligation); !reflect.DeepEqual(got, want) {
			t.Fatalf("contract %d: maker methods %v, direct %v", c.ID, got, want)
		}
		if got, want := ix.TakerMethods(c), textmine.PaymentMethods(c.TakerObligation); !reflect.DeepEqual(got, want) {
			t.Fatalf("contract %d: taker methods %v, direct %v", c.ID, got, want)
		}
	}
	// Fallback path: a private or incomplete contract is outside the
	// table but must still classify.
	for _, c := range d.Contracts {
		if c.Public && c.IsComplete() {
			continue
		}
		if got, want := ix.MakerCategories(c), textmine.Categorize(c.MakerObligation); !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback contract %d: %v != %v", c.ID, got, want)
		}
		break
	}
}

// TestIndexConcurrentConstruction hammers every lazy group from many
// goroutines at once — the pattern the scheduler produces when multiple
// stages touch a cold index simultaneously. Run under -race this pins
// the once-guard; the result checks pin that racing builders agree.
func TestIndexConcurrentConstruction(t *testing.T) {
	d := corpus(t)
	for round := 0; round < 3; round++ {
		ix := NewIndex(d)
		ref := NewIndex(d) // built serially below, compared after the race
		refCats := ref.MakerCategories(ref.CompletedPublic()[0])

		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 8 {
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
				case 6:
					ix.MoneyContracts()
				default:
					ix.MakerCategories(ref.CompletedPublic()[0])
				}
			}(g)
		}
		wg.Wait()

		if got := ix.MakerCategories(ix.CompletedPublic()[0]); !reflect.DeepEqual(got, refCats) {
			t.Fatalf("round %d: concurrent build produced %v, serial %v", round, got, refCats)
		}
		if !reflect.DeepEqual(ix.MoneyContracts(), ref.MoneyContracts()) {
			t.Fatalf("round %d: MoneyContracts diverge between concurrent and serial builds", round)
		}
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
