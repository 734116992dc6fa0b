package dataset

import (
	"bytes"
	"testing"
	"time"

	"turnup/internal/forum"
)

func TestMonthOf(t *testing.T) {
	cases := []struct {
		t    time.Time
		want Month
	}{
		{time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC), 0},
		{time.Date(2018, 12, 31, 23, 0, 0, 0, time.UTC), 6},
		{time.Date(2019, 3, 15, 0, 0, 0, 0, time.UTC), 9},
		{time.Date(2020, 6, 30, 0, 0, 0, 0, time.UTC), 24},
		{time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC), 0},  // clamp low
		{time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC), 24}, // clamp high
	}
	for _, c := range cases {
		if got := MonthOf(c.t); got != c.want {
			t.Errorf("MonthOf(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestMonthRoundTrip(t *testing.T) {
	for m := Month(0); m < NumMonths; m++ {
		if got := MonthOf(m.Time()); got != m {
			t.Errorf("round trip %v → %v", m, got)
		}
	}
	if Month(0).String() != "2018-06" || Month(24).String() != "2020-06" {
		t.Errorf("month strings: %v %v", Month(0), Month(24))
	}
}

func TestEraOf(t *testing.T) {
	cases := []struct {
		t    time.Time
		want Era
	}{
		{time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC), EraSetup},
		{time.Date(2019, 2, 28, 23, 59, 0, 0, time.UTC), EraSetup},
		{time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC), EraStable},
		{time.Date(2020, 3, 10, 23, 0, 0, 0, time.UTC), EraStable},
		{time.Date(2020, 3, 11, 0, 0, 0, 0, time.UTC), EraCovid},
		{time.Date(2020, 6, 30, 0, 0, 0, 0, time.UTC), EraCovid},
	}
	for _, c := range cases {
		if got := EraOf(c.t); got != c.want {
			t.Errorf("EraOf(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestEraMonthsPartitionStudy(t *testing.T) {
	seen := map[Month]Era{}
	for _, e := range Eras {
		for _, m := range e.Months() {
			if prev, dup := seen[m]; dup {
				t.Fatalf("month %v in both %v and %v", m, prev, e)
			}
			seen[m] = e
		}
	}
	if len(seen) != NumMonths {
		t.Fatalf("era months cover %d of %d months", len(seen), NumMonths)
	}
	// SET-UP is 9 months (2018-06..2019-02); COVID-19 is 4 (2020-03..06).
	if n := len(EraSetup.Months()); n != 9 {
		t.Errorf("SET-UP months = %d, want 9", n)
	}
	if n := len(EraCovid.Months()); n != 4 {
		t.Errorf("COVID months = %d, want 4", n)
	}
}

func TestEraStrings(t *testing.T) {
	if EraSetup.String() != "SET-UP" || EraStable.String() != "STABLE" || EraCovid.String() != "COVID-19" {
		t.Error("era names wrong")
	}
}

func mkContract(t *testing.T, d *Dataset, id int, typ forum.ContractType, maker, taker forum.UserID, created time.Time, public, complete bool) *forum.Contract {
	t.Helper()
	c, err := forum.NewContract(forum.ContractID(id), typ, maker, taker, created, public)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		if err := c.Accept(created.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := c.MarkComplete(forum.MakerParty, created.Add(2*time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := c.MarkComplete(forum.TakerParty, created.Add(3*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	d.Contracts = append(d.Contracts, c)
	return c
}

func seedDataset(t *testing.T) *Dataset {
	t.Helper()
	d := New()
	for id := forum.UserID(1); id <= 4; id++ {
		d.Users[id] = &forum.User{ID: id, Joined: SetupStart}
	}
	mkContract(t, d, 1, forum.Sale, 1, 2, time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC), true, true)
	mkContract(t, d, 2, forum.Exchange, 2, 3, time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC), false, true)
	mkContract(t, d, 3, forum.Purchase, 3, 4, time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC), true, false)
	return d
}

// seedCorpora returns the seed corpus as built and after a TUDS round
// trip; the filters and month buckets must count both the same.
func seedCorpora(t *testing.T) map[string]*Dataset {
	t.Helper()
	d := seedDataset(t)
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Dataset{"built": d, "decoded": got}
}

func TestDatasetFilters(t *testing.T) {
	for name, d := range seedCorpora(t) {
		var completed, public, completedPublic int
		var eras [NumEras]int
		for _, c := range d.Contracts {
			if c.IsComplete() {
				completed++
			}
			if c.Public {
				public++
				if c.IsComplete() {
					completedPublic++
				}
			}
			eras[EraOf(c.Created)]++
		}
		if completed != 2 {
			t.Errorf("%s: Completed = %d", name, completed)
		}
		if public != 2 {
			t.Errorf("%s: Public = %d", name, public)
		}
		if completedPublic != 1 {
			t.Errorf("%s: CompletedPublic = %d", name, completedPublic)
		}
		if eras[EraSetup] != 1 {
			t.Errorf("%s: InEra(SET-UP) = %d", name, eras[EraSetup])
		}
		if eras[EraCovid] != 1 {
			t.Errorf("%s: InEra(COVID) = %d", name, eras[EraCovid])
		}
	}
}

func TestByMonth(t *testing.T) {
	july := MonthOf(time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC))
	for name, d := range seedCorpora(t) {
		var months, completedMonths [NumMonths]int
		for _, c := range d.Contracts {
			months[MonthOf(c.Created)]++
			if c.IsComplete() {
				completedMonths[MonthOf(c.Completed)]++
			}
		}
		if months[july] != 1 {
			t.Errorf("%s: 2018-07 bucket = %d", name, months[july])
		}
		if completedMonths[july] != 1 {
			t.Errorf("%s: 2018-07 completion bucket = %d", name, completedMonths[july])
		}
		total := 0
		for _, n := range completedMonths {
			total += n
		}
		if total != 2 {
			t.Errorf("%s: CompletedByMonth total = %d", name, total)
		}
	}
}

func TestSummary(t *testing.T) {
	d := seedDataset(t)
	s := d.Summary()
	if s.Users != 4 || s.Contracts != 3 || s.Completed != 2 || s.Public != 2 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestValidate(t *testing.T) {
	d := seedDataset(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	// Unknown maker.
	bad := seedDataset(t)
	bad.Contracts[0].Maker = 99
	if err := bad.Validate(); err == nil {
		t.Error("unknown maker accepted")
	}
	// Private contract with obligation text.
	bad2 := seedDataset(t)
	bad2.Contracts[1].MakerObligation = "leak"
	if err := bad2.Validate(); err == nil {
		t.Error("private obligation leak accepted")
	}
	// Disputed but private: build directly to bypass the state machine.
	bad3 := seedDataset(t)
	bad3.Contracts[2].Status = forum.StatusDisputed
	bad3.Contracts[2].Public = false
	if err := bad3.Validate(); err == nil {
		t.Error("private disputed contract accepted")
	}
}

func TestContractsCSVRoundTrip(t *testing.T) {
	d := seedDataset(t)
	d.Contracts[0].MakerObligation = "selling $25 amazon giftcard, btc only"
	d.Contracts[0].TakerObligation = "paying 0.004 btc"
	d.Contracts[0].BTCAddress = "1abc"
	d.Contracts[0].TxHash = "ffee"
	var buf bytes.Buffer
	if err := WriteContractsCSV(&buf, d.Contracts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadContractsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d.Contracts) {
		t.Fatalf("round trip count %d vs %d", len(got), len(d.Contracts))
	}
	a, b := d.Contracts[0], got[0]
	if a.ID != b.ID || a.Type != b.Type || a.Maker != b.Maker || a.Taker != b.Taker ||
		!a.Created.Equal(b.Created) || !a.Completed.Equal(b.Completed) ||
		a.Status != b.Status || a.Public != b.Public ||
		a.MakerObligation != b.MakerObligation || a.BTCAddress != b.BTCAddress ||
		a.TxHash != b.TxHash {
		t.Errorf("round trip mismatch:\n%+v\n%+v", a, b)
	}
}

func TestContractsCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadContractsCSV(bytes.NewBufferString("foo,bar\n")); err == nil {
		t.Error("bad header accepted")
	}
}

func TestUsersCSVRoundTrip(t *testing.T) {
	d := seedDataset(t)
	d.Users[2].Posts = 42
	d.Users[2].MarketplacePosts = 7
	d.Users[2].Reputation = 33
	var buf bytes.Buffer
	if err := WriteUsersCSV(&buf, d.Users); err != nil {
		t.Fatal(err)
	}
	got, err := ReadUsersCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d.Users) {
		t.Fatalf("user count %d vs %d", len(got), len(d.Users))
	}
	if got[2].Posts != 42 || got[2].MarketplacePosts != 7 || got[2].Reputation != 33 {
		t.Errorf("user 2 = %+v", got[2])
	}
}

func TestSaveLoadDir(t *testing.T) {
	d := seedDataset(t)
	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Contracts) != len(d.Contracts) || len(got.Users) != len(d.Users) {
		t.Errorf("loaded %d contracts %d users", len(got.Contracts), len(got.Users))
	}
	if err := got.Validate(); err != nil {
		t.Errorf("loaded dataset invalid: %v", err)
	}
}

func TestLoadDirMissing(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir loaded without error")
	}
}

func TestReadContractsCSVBadRows(t *testing.T) {
	header := "id,type,maker,taker,thread,created,decided,completed,status,public,maker_obligation,taker_obligation,maker_rating,taker_rating,btc_address,tx_hash\n"
	cases := map[string]string{
		"bad id":     "x,SALE,1,2,0,2019-01-01T00:00:00Z,,,Pending,true,,,0,0,,\n",
		"bad type":   "1,GIFT,1,2,0,2019-01-01T00:00:00Z,,,Pending,true,,,0,0,,\n",
		"bad maker":  "1,SALE,x,2,0,2019-01-01T00:00:00Z,,,Pending,true,,,0,0,,\n",
		"bad time":   "1,SALE,1,2,0,notatime,,,Pending,true,,,0,0,,\n",
		"bad status": "1,SALE,1,2,0,2019-01-01T00:00:00Z,,,Sleeping,true,,,0,0,,\n",
		"bad public": "1,SALE,1,2,0,2019-01-01T00:00:00Z,,,Pending,maybe,,,0,0,,\n",
		"bad rating": "1,SALE,1,2,0,2019-01-01T00:00:00Z,,,Pending,true,,,x,0,,\n",
		"few fields": "1,SALE\n",
	}
	for name, row := range cases {
		if _, err := ReadContractsCSV(bytes.NewBufferString(header + row)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReadUsersCSVBadRows(t *testing.T) {
	header := "id,joined,first_post,posts,marketplace_posts,reputation,kind\n"
	cases := map[string]string{
		"bad id":    "x,2019-01-01T00:00:00Z,,0,0,0,0\n",
		"bad time":  "1,nope,,0,0,0,0\n",
		"bad posts": "1,2019-01-01T00:00:00Z,,x,0,0,0\n",
		"bad rep":   "1,2019-01-01T00:00:00Z,,0,0,x,0\n",
	}
	for name, row := range cases {
		if _, err := ReadUsersCSV(bytes.NewBufferString(header + row)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
