// The golden incremental-index test: a corpus is replayed as a base
// prefix plus event batches, and at every generation the report rendered
// through Index.Append must be byte-identical to one rebuilt from
// scratch — at every worker count. This is the contract the serving
// tier's live-ingest path (POST /v1/datasets/{id}/events) rests on; it
// lives in an external test package so it can render through the public
// facade exactly as hfserved does.
package analysis_test

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"turnup"
	"turnup/internal/analysis"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/ingest"
	"turnup/internal/market"
	"turnup/internal/rng"
)

// renderSuite runs the descriptive suite (SkipModels: the model tier
// re-fits from raw groups and only slows the comparison down) and
// renders every section.
func renderSuite(t *testing.T, d *dataset.Dataset, ix *analysis.Index, workers int) string {
	t.Helper()
	res, err := analysis.RunSuiteCtx(context.Background(), d, analysis.SuiteOptions{
		SkipModels: true,
		Workers:    workers,
		Index:      ix,
	}, rng.New(1))
	if err != nil {
		t.Fatalf("RunSuite (workers=%d): %v", workers, err)
	}
	return turnup.RenderAll(res)
}

func TestIncrementalIndexGolden(t *testing.T) {
	full, _, err := market.Generate(market.Config{Seed: 29, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the corpus in event order: contracts sorted by creation time
	// (ties by id) so every batch is an in-order suffix extension.
	contracts := append([]*forum.Contract(nil), full.Contracts...)
	sort.SliceStable(contracts, func(i, j int) bool {
		if !contracts[i].Created.Equal(contracts[j].Created) {
			return contracts[i].Created.Before(contracts[j].Created)
		}
		return contracts[i].ID < contracts[j].ID
	})
	if len(contracts) < 40 {
		t.Fatalf("corpus too small to split: %d contracts", len(contracts))
	}
	base := len(contracts) / 2
	d := &dataset.Dataset{
		Users:     full.Users,
		Threads:   full.Threads,
		Posts:     full.Posts,
		Contracts: contracts[:base:base],
		Ledger:    full.Ledger,
	}
	ix := analysis.NewIndex(d)

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	baseReport := renderSuite(t, d, ix, 1)

	// Three batches: two thirds of the remainder in two chunks, then the
	// tail — uneven sizes so batch boundaries never align with months.
	rest := contracts[base:]
	cuts := []int{len(rest) / 3, 2 * len(rest) / 3, len(rest)}
	prev := 0
	parentD, parentIx := d, ix
	for gen, cut := range cuts {
		batch := rest[prev:cut]
		prev = cut
		nd := ingest.Apply(parentD, &ingest.Batch{Contracts: batch})
		nix := parentIx.Append(nd, batch)

		assertIndexMatchesRebuild(t, nd, nix)

		// One from-scratch render is the golden reference; the incremental
		// index must reproduce it byte-for-byte at every worker count. The
		// reference must bypass the dataset's shared group cache (Append
		// installed the groups under test there), so it pins RebuildIndex.
		want := renderSuite(t, nd, analysis.RebuildIndex(nd), 1)
		for _, w := range workerCounts {
			if got := renderSuite(t, nd, nix, w); got != want {
				t.Fatalf("generation %d workers %d: incremental report diverges from rebuild", gen+2, w)
			}
		}
		parentD, parentIx = nd, nix
	}

	// COW: the base snapshot must render today exactly as it did before
	// any append — three generations later, nothing leaked backwards.
	if got := renderSuite(t, d, ix, 1); got != baseReport {
		t.Fatal("appends mutated the parent snapshot: base report changed")
	}

	// Out-of-order append: a batch that predates the parent's newest
	// contract and is unordered within itself. It adds a completed-public
	// money contract to month 0 and moves an existing user's first era
	// back to SET-UP, so history buckets, the obligation table and
	// first-era-of-use all change — and the appended index must still
	// match a rebuild.
	money := analysis.MoneyContracts(parentIx)[0]
	var later forum.UserID
	for u, e := range parentIx.FirstEraOfUse() {
		if e != dataset.EraSetup && (later == 0 || u < later) {
			later = u
		}
	}
	if later == 0 {
		t.Fatal("corpus has no user first seen after SET-UP")
	}
	nextID := contracts[len(contracts)-1].ID + 1
	setupMove := shifted(contracts[base], nextID+1, time.Date(2018, 11, 3, 0, 0, 0, 0, time.UTC))
	setupMove.Maker = later
	ooo := []*forum.Contract{
		shifted(contracts[base+1], nextID+2, time.Date(2019, 8, 20, 0, 0, 0, 0, time.UTC)),
		shifted(money, nextID, time.Date(2018, 6, 5, 0, 0, 0, 0, time.UTC)),
		setupMove,
	}
	nd := ingest.Apply(parentD, &ingest.Batch{Contracts: ooo})
	nix := parentIx.Append(nd, ooo)
	if e := nix.FirstEraOfUse()[later]; e != dataset.EraSetup {
		t.Fatalf("out-of-order append left user %d's first era at %v", later, e)
	}
	if mc := analysis.MoneyContracts(nix); mc[len(mc)-1].ID != nextID || len(nix.ByMonth()[0]) != len(parentIx.ByMonth()[0])+1 {
		t.Fatal("out-of-order append did not add the month-0 money contract")
	}
	assertIndexMatchesRebuild(t, nd, nix)
	want := renderSuite(t, nd, analysis.RebuildIndex(nd), 1)
	for _, w := range []int{1, 4} {
		if got := renderSuite(t, nd, nix, w); got != want {
			t.Fatalf("out-of-order append, workers %d: incremental report diverges from rebuild", w)
		}
	}
}

// shifted copies src under a new id, moved in time so it is created at
// created; decision and completion times keep their offsets.
func shifted(src *forum.Contract, id forum.ContractID, created time.Time) *forum.Contract {
	c := *src
	delta := created.Sub(c.Created)
	c.ID = id
	c.Created = created
	if !c.Decided.IsZero() {
		c.Decided = c.Decided.Add(delta)
	}
	if !c.Completed.IsZero() {
		c.Completed = c.Completed.Add(delta)
	}
	return &c
}

// TestIndexAppendSiblingIsolation appends two children to one parent
// with batches that land in the same month, era, completed-public,
// money and per-user buckets, under the same contract ids. Appends into
// a shared parent bucket's spare capacity, or into a shared map, would
// let the second child overwrite the first one's entries; each child
// must instead match its own rebuild, and the parent must be unchanged.
func TestIndexAppendSiblingIsolation(t *testing.T) {
	d, _, err := market.Generate(market.Config{Seed: 31, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	ix := analysis.NewIndex(d)
	baseReport := renderSuite(t, d, ix, 1)

	money := analysis.MoneyContracts(ix)
	if len(money) < 6 {
		t.Fatalf("corpus has %d money contracts, want at least 6", len(money))
	}
	maker := money[0].Maker
	at := time.Date(2019, 5, 15, 0, 0, 0, 0, time.UTC)
	var maxID forum.ContractID
	for _, c := range d.Contracts {
		maxID = max(maxID, c.ID)
	}
	batch := func(src []*forum.Contract) []*forum.Contract {
		out := make([]*forum.Contract, len(src))
		for i, c := range src {
			out[i] = shifted(c, maxID+1+forum.ContractID(i), at.Add(time.Duration(i)*time.Hour))
			out[i].Maker = maker
		}
		return out
	}
	a, b := batch(money[:3]), batch(money[3:6])
	da := ingest.Apply(d, &ingest.Batch{Contracts: a})
	ixa := ix.Append(da, a)
	db := ingest.Apply(d, &ingest.Batch{Contracts: b})
	ixb := ix.Append(db, b)

	assertIndexMatchesRebuild(t, da, ixa)
	assertIndexMatchesRebuild(t, db, ixb)
	assertIndexMatchesRebuild(t, d, ix)
	for _, w := range []int{1, 4} {
		if renderSuite(t, da, ixa, w) != renderSuite(t, da, analysis.RebuildIndex(da), 1) {
			t.Fatalf("workers %d: first child's report diverges from its rebuild", w)
		}
		if renderSuite(t, db, ixb, w) != renderSuite(t, db, analysis.RebuildIndex(db), 1) {
			t.Fatalf("workers %d: second child's report diverges from its rebuild", w)
		}
	}
	if renderSuite(t, d, ix, 1) != baseReport {
		t.Fatal("sibling appends changed the parent's report")
	}
}

// assertIndexMatchesRebuild pins the appended index's derived groups to
// a from-scratch rebuild over the same corpus — structural identity, not
// just report identity. RebuildIndex, not NewIndex: the latter would read
// the shared cache slot Append just installed the groups under test into.
func assertIndexMatchesRebuild(t *testing.T, d *dataset.Dataset, got *analysis.Index) {
	t.Helper()
	want := analysis.RebuildIndex(d)
	if !reflect.DeepEqual(got.ByMonth(), want.ByMonth()) {
		t.Fatal("ByMonth diverges from rebuild")
	}
	if !reflect.DeepEqual(got.CompletedByMonth(), want.CompletedByMonth()) {
		t.Fatal("CompletedByMonth diverges from rebuild")
	}
	if !reflect.DeepEqual(got.Completed(), want.Completed()) {
		t.Fatal("Completed diverges from rebuild")
	}
	if !reflect.DeepEqual(got.CompletedPublic(), want.CompletedPublic()) {
		t.Fatal("CompletedPublic diverges from rebuild")
	}
	for _, e := range dataset.Eras {
		if !reflect.DeepEqual(got.InEra(e), want.InEra(e)) {
			t.Fatalf("InEra(%v) diverges from rebuild", e)
		}
	}
	if !reflect.DeepEqual(got.UserContracts(), want.UserContracts()) {
		t.Fatal("UserContracts diverges from rebuild")
	}
	if !reflect.DeepEqual(got.FirstEraOfUse(), want.FirstEraOfUse()) {
		t.Fatal("FirstEraOfUse diverges from rebuild")
	}
	if !reflect.DeepEqual(analysis.Obligations(got), analysis.Obligations(want)) {
		t.Fatal("obligation table diverges from rebuild")
	}
}
