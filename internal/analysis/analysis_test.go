package analysis

import (
	"sync"
	"testing"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/market"
)

// The analysis tests share one simulated corpus (scale 0.1, ~19k
// contracts) and a smaller one for the expensive latent-class fits.
var (
	bigOnce   sync.Once
	bigData   *dataset.Dataset
	smallOnce sync.Once
	smallData *dataset.Dataset
)

func corpus(t *testing.T) *dataset.Dataset {
	t.Helper()
	bigOnce.Do(func() {
		d, _, err := market.Generate(market.Config{Seed: 11, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		bigData = d
	})
	return bigData
}

func smallCorpus(t *testing.T) *dataset.Dataset {
	t.Helper()
	smallOnce.Do(func() {
		d, _, err := market.Generate(market.Config{Seed: 13, Scale: 0.04})
		if err != nil {
			t.Fatal(err)
		}
		smallData = d
	})
	return smallData
}

func TestBucketOfCoversAllStatuses(t *testing.T) {
	want := map[forum.Status]Bucket{
		forum.StatusCompleted:      BucketComplete,
		forum.StatusActive:         BucketActive,
		forum.StatusMarkedComplete: BucketActive,
		forum.StatusPending:        BucketActive,
		forum.StatusDisputed:       BucketDisputed,
		forum.StatusIncomplete:     BucketIncomplete,
		forum.StatusCancelled:      BucketCancelled,
		forum.StatusDenied:         BucketDenied,
		forum.StatusExpired:        BucketExpired,
	}
	for s, b := range want {
		if got := BucketOf(s); got != b {
			t.Errorf("BucketOf(%v) = %v, want %v", s, got, b)
		}
	}
}

func TestTaxonomyTotalsConsistent(t *testing.T) {
	d := corpus(t)
	r := Taxonomy(d)
	if r.Total != len(d.Contracts) {
		t.Fatalf("Total = %d, want %d", r.Total, len(d.Contracts))
	}
	sumTypes := 0
	for _, typ := range forum.ContractTypes {
		sumTypes += r.TypeTotal(typ)
	}
	if sumTypes != r.Total {
		t.Errorf("type totals sum to %d", sumTypes)
	}
	sumBuckets := 0
	for b := Bucket(0); b < NumBuckets; b++ {
		sumBuckets += r.BucketTotal(b)
	}
	if sumBuckets != r.Total {
		t.Errorf("bucket totals sum to %d", sumBuckets)
	}
}

func TestTaxonomyShapesMatchPaper(t *testing.T) {
	d := corpus(t)
	r := Taxonomy(d)
	// SALE dominates; EXCHANGE second; VOUCH COPY has no denials.
	if r.TypeTotal(forum.Sale) <= r.TypeTotal(forum.Exchange) {
		t.Error("SALE does not dominate EXCHANGE")
	}
	if r.TypeTotal(forum.Exchange) <= r.TypeTotal(forum.Purchase) {
		t.Error("EXCHANGE does not beat PURCHASE")
	}
	if r.Counts[forum.VouchCopy][BucketDenied] != 0 {
		t.Error("VOUCH COPY has denials")
	}
	// EXCHANGE completion more than double SALE's.
	if r.CompletionRate(forum.Exchange) < 2*r.CompletionRate(forum.Sale) {
		t.Errorf("completion rates: EXCHANGE %.3f vs SALE %.3f",
			r.CompletionRate(forum.Exchange), r.CompletionRate(forum.Sale))
	}
	// SALE has the highest non-completion count.
	if r.Counts[forum.Sale][BucketIncomplete] <= r.Counts[forum.Exchange][BucketIncomplete] {
		t.Error("SALE incomplete not dominant")
	}
}

func TestVisibilityTable(t *testing.T) {
	d := corpus(t)
	r := Visibility(d)
	if len(r.Rows) != 2*forum.NumContractTypes {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	created := r.OverallPublicShare(false)
	completed := r.OverallPublicShare(true)
	if created < 0.08 || created > 0.20 {
		t.Errorf("created public share = %.3f", created)
	}
	if completed <= created {
		t.Errorf("completed public share %.3f not above created %.3f", completed, created)
	}
	// SALE created rows are the most private of the major types.
	var saleRow, purchaseRow VisibilityRow
	for _, row := range r.Rows {
		if row.Completed {
			continue
		}
		switch row.Type {
		case forum.Sale:
			saleRow = row
		case forum.Purchase:
			purchaseRow = row
		}
	}
	if saleRow.PublicShare() >= purchaseRow.PublicShare() {
		t.Errorf("SALE public share %.3f not below PURCHASE %.3f",
			saleRow.PublicShare(), purchaseRow.PublicShare())
	}
}

func TestGrowthFigureOne(t *testing.T) {
	d := corpus(t)
	g := Growth(NewIndex(d))
	totalCreated := 0
	for _, n := range g.Created {
		totalCreated += n
	}
	if totalCreated != len(d.Contracts) {
		t.Fatalf("created sums to %d, want %d", totalCreated, len(d.Contracts))
	}
	totalCompleted := 0
	for _, n := range g.Completed {
		totalCompleted += n
	}
	if totalCompleted != len(NewIndex(d).Completed()) {
		t.Fatalf("completed sums to %d", totalCompleted)
	}
	// Mandatory-contract jump and COVID spike.
	if g.Created[9] < 2*g.Created[8] {
		t.Error("no March 2019 jump in created contracts")
	}
	if g.Created[22] <= g.Created[10] {
		t.Error("April 2020 does not exceed April 2019")
	}
	// New members burst in March 2019.
	if g.NewCreators[9] < 2*g.NewCreators[8] {
		t.Errorf("new-member burst missing: feb=%d mar=%d", g.NewCreators[8], g.NewCreators[9])
	}
	// Every member counted at most once.
	totalNew := 0
	for _, n := range g.NewCreators {
		totalNew += n
	}
	if totalNew > len(d.Users) {
		t.Errorf("new creators %d exceed user count %d", totalNew, len(d.Users))
	}
}

func TestPublicTrendFigureTwo(t *testing.T) {
	d := corpus(t)
	tr := PublicTrend(NewIndex(d))
	// Early SET-UP well above STABLE.
	early := (tr.CreatedPublic[0] + tr.CreatedPublic[1] + tr.CreatedPublic[2]) / 3
	stable := (tr.CreatedPublic[12] + tr.CreatedPublic[13] + tr.CreatedPublic[14]) / 3
	if early < stable+0.15 {
		t.Errorf("public share not declining: early %.3f stable %.3f", early, stable)
	}
	// Completed share above created share in most months and on average.
	higher := 0
	var sumCreated, sumCompleted float64
	for m := 0; m < dataset.NumMonths; m++ {
		if tr.CompletedPublic[m] > tr.CreatedPublic[m] {
			higher++
		}
		sumCreated += tr.CreatedPublic[m]
		sumCompleted += tr.CompletedPublic[m]
	}
	if higher < 13 {
		t.Errorf("completed public share above created in only %d months", higher)
	}
	if sumCompleted <= sumCreated {
		t.Errorf("mean completed public share %.3f not above created %.3f",
			sumCompleted/dataset.NumMonths, sumCreated/dataset.NumMonths)
	}
}

func TestTypeShareTrendFigureThree(t *testing.T) {
	d := corpus(t)
	tr := TypeShareTrend(NewIndex(d))
	for m := 0; m < dataset.NumMonths; m++ {
		sum := 0.0
		for _, s := range tr.Created[m] {
			sum += s
		}
		if sum > 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("month %d created shares sum to %v", m, sum)
		}
	}
	// EXCHANGE leads at launch; SALE dominates in STABLE (the swap).
	if tr.Created[0][forum.Exchange] <= tr.Created[0][forum.Sale] {
		t.Error("EXCHANGE does not lead at launch")
	}
	if tr.Created[12][forum.Sale] < 0.6 {
		t.Errorf("SALE share in STABLE = %.3f, want > 0.6", tr.Created[12][forum.Sale])
	}
	// VOUCH COPY absent before February 2020 (month 20).
	for m := 0; m < 20; m++ {
		if tr.Created[m][forum.VouchCopy] != 0 {
			t.Fatalf("VOUCH COPY share %.4f in month %d", tr.Created[m][forum.VouchCopy], m)
		}
	}
	// Completed SALE share below completed EXCHANGE relative to created
	// (EXCHANGE more likely to complete): check ratio ordering mid-STABLE.
	if tr.Completed[14][forum.Exchange]/tr.Created[14][forum.Exchange] <=
		tr.Completed[14][forum.Sale]/tr.Created[14][forum.Sale] {
		t.Error("EXCHANGE not over-represented among completed")
	}
}

func TestCompletionTimeTrendFigureFour(t *testing.T) {
	d := corpus(t)
	tr := CompletionTimeTrend(d)
	if tr.CoveredShare < 0.6 || tr.CoveredShare > 0.8 {
		t.Errorf("completion-date coverage = %.3f, want ~0.7", tr.CoveredShare)
	}
	early := tr.MeanHours[1][forum.Sale]
	late := tr.MeanHours[24][forum.Sale]
	if late >= early {
		t.Errorf("SALE completion time not declining: %v → %v", early, late)
	}
	if late > 25 {
		t.Errorf("June 2020 SALE completion %.1fh, want near 10h", late)
	}
}

func TestConcentrationFigureFive(t *testing.T) {
	d := corpus(t)
	c := Concentrate(NewIndex(d))
	// Top 5% of users involved in the majority of contracts.
	if s := c.UsersCreated.ShareAtTop(0.05); s < 0.55 {
		t.Errorf("top-5%% user share (created) = %.3f", s)
	}
	if s := c.UsersCompleted.ShareAtTop(0.05); s < 0.55 {
		t.Errorf("top-5%% user share (completed) = %.3f", s)
	}
	// ~70% of thread-linked contracts within the top 30% of threads.
	if s := c.ThreadsCreated.ShareAtTop(0.30); s < 0.5 {
		t.Errorf("top-30%% thread share = %.3f", s)
	}
	// Curves are monotone and end at 1.
	for i := 1; i < len(c.UsersCreated.Share); i++ {
		if c.UsersCreated.Share[i] < c.UsersCreated.Share[i-1]-1e-12 {
			t.Fatal("user curve not monotone")
		}
	}
	last := c.UsersCreated.Share[len(c.UsersCreated.Share)-1]
	if last < 0.999 {
		t.Errorf("user curve ends at %.4f", last)
	}
}

func TestKeySharesFigureSix(t *testing.T) {
	d := corpus(t)
	k := KeyShares(NewIndex(d))
	for m := 0; m < dataset.NumMonths; m++ {
		for _, v := range []float64{k.MemberCreated[m], k.MemberCompleted[m], k.ThreadCreated[m], k.ThreadCompleted[m]} {
			if v < 0 || v > 1 {
				t.Fatalf("month %d key share out of range: %v", m, v)
			}
		}
		if k.MemberCreated[m] < 0.2 {
			t.Errorf("month %d key member share %.3f implausibly low", m, k.MemberCreated[m])
		}
	}
}

func TestCentralisationTrend(t *testing.T) {
	d := corpus(t)
	c := CentralisationTrend(NewIndex(d))
	for m, g := range c.Gini {
		if g < 0 || g > 1 {
			t.Fatalf("month %d Gini = %v", m, g)
		}
	}
	// The market centralises over time: later eras at least as
	// concentrated as SET-UP (§4.2).
	eraMean := func(e dataset.Era) float64 {
		sum := 0.0
		for _, m := range e.Months() {
			sum += c.Gini[m]
		}
		return sum / float64(len(e.Months()))
	}
	if stable, setup := eraMean(dataset.EraStable), eraMean(dataset.EraSetup); stable < setup-0.05 {
		t.Errorf("STABLE Gini %.3f well below SET-UP %.3f", stable, setup)
	}
}
