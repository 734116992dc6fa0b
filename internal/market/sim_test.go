package market

import (
	"math"
	"sort"
	"testing"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/fx"
	"turnup/internal/textmine"
)

// testData caches one generated corpus per test binary run: generation at
// scale 0.1 (~19k contracts) is the expensive step every calibration test
// shares.
var (
	testD     *dataset.Dataset
	testTruth *Truth
)

func generated(t *testing.T) (*dataset.Dataset, *Truth) {
	t.Helper()
	if testD == nil {
		var err error
		testD, testTruth, err = Generate(Config{Seed: 7, Scale: 0.1})
		if err != nil {
			t.Fatal(err)
		}
	}
	return testD, testTruth
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []float64{0, -1, 5, math.NaN(), math.Inf(1)} {
		if _, _, err := Generate(Config{Seed: 1, Scale: bad}); err == nil {
			t.Errorf("scale %v accepted", bad)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _, err := Generate(Config{Seed: 42, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(Config{Seed: 42, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Summary(), b.Summary()
	if sa != sb {
		t.Fatalf("same seed, different corpora: %+v vs %+v", sa, sb)
	}
	// Contract-level spot check.
	for i := range a.Contracts {
		x, y := a.Contracts[i], b.Contracts[i]
		if x.ID != y.ID || x.Type != y.Type || x.Maker != y.Maker ||
			x.Status != y.Status || x.MakerObligation != y.MakerObligation {
			t.Fatalf("contract %d differs between runs", i)
		}
	}
}

func TestGenerateDifferentSeeds(t *testing.T) {
	a, _, err := Generate(Config{Seed: 1, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(Config{Seed: 2, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() == b.Summary() {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestDatasetValidates(t *testing.T) {
	d, _ := generated(t)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTypeMixMatchesTableOne(t *testing.T) {
	d, _ := generated(t)
	counts := map[forum.ContractType]float64{}
	for _, c := range d.Contracts {
		counts[c.Type]++
	}
	total := float64(len(d.Contracts))
	want := map[forum.ContractType][2]float64{ // {target share, tolerance}
		forum.Sale:      {0.649, 0.05},
		forum.Exchange:  {0.215, 0.04},
		forum.Purchase:  {0.119, 0.04},
		forum.Trade:     {0.0125, 0.01},
		forum.VouchCopy: {0.005, 0.006},
	}
	for typ, w := range want {
		got := counts[typ] / total
		if math.Abs(got-w[0]) > w[1] {
			t.Errorf("%v share = %.3f, want %.3f ± %.3f", typ, got, w[0], w[1])
		}
	}
}

func TestCompletionRatesMatchTableOne(t *testing.T) {
	d, _ := generated(t)
	created := map[forum.ContractType]float64{}
	completed := map[forum.ContractType]float64{}
	for _, c := range d.Contracts {
		created[c.Type]++
		if c.IsComplete() {
			completed[c.Type]++
		}
	}
	// EXCHANGE completes at ~70%, more than double SALE's ~33%.
	exRate := completed[forum.Exchange] / created[forum.Exchange]
	saRate := completed[forum.Sale] / created[forum.Sale]
	if math.Abs(exRate-0.698) > 0.05 {
		t.Errorf("EXCHANGE completion rate = %.3f", exRate)
	}
	if math.Abs(saRate-0.327) > 0.05 {
		t.Errorf("SALE completion rate = %.3f", saRate)
	}
	if exRate < 1.85*saRate {
		t.Errorf("EXCHANGE rate %.3f not roughly double SALE rate %.3f", exRate, saRate)
	}
}

func TestVisibilityShares(t *testing.T) {
	d, _ := generated(t)
	var nPublic, nCompleted, pubCompleted int
	for _, c := range d.Contracts {
		if c.Public {
			nPublic++
		}
		if c.IsComplete() {
			nCompleted++
			if c.Public {
				pubCompleted++
			}
		}
	}
	public := float64(nPublic)
	total := float64(len(d.Contracts))
	if share := public / total; share < 0.09 || share > 0.18 {
		t.Errorf("public share = %.3f, want ~0.12-0.15", share)
	}
	// Completed public share exceeds created public share (public deals
	// settle more often).
	createdShare := public / total
	completedShare := float64(pubCompleted) / float64(nCompleted)
	if completedShare <= createdShare {
		t.Errorf("completed public share %.3f not above created %.3f", completedShare, createdShare)
	}
}

func TestVisibilityDeclinesAcrossEras(t *testing.T) {
	d, _ := generated(t)
	shareIn := func(e dataset.Era) float64 {
		n, pub := 0, 0
		for _, c := range d.Contracts {
			if dataset.EraOf(c.Created) != e {
				continue
			}
			n++
			if c.Public {
				pub++
			}
		}
		return float64(pub) / float64(n)
	}
	setup, stable := shareIn(dataset.EraSetup), shareIn(dataset.EraStable)
	if setup < stable+0.1 {
		t.Errorf("SET-UP public share %.3f not clearly above STABLE %.3f", setup, stable)
	}
}

func TestMonthlyVolumeShape(t *testing.T) {
	d, _ := generated(t)
	var byMonth [dataset.NumMonths]int
	for _, c := range d.Contracts {
		byMonth[dataset.MonthOf(c.Created)]++
	}
	count := func(m int) int { return byMonth[m] }
	// The mandatory-contracts jump: March 2019 (month 9) far above Feb 2019 (8).
	if count(9) < 2*count(8) {
		t.Errorf("no mandatory-contract jump: feb=%d mar=%d", count(8), count(9))
	}
	// COVID peak (April 2020, month 22) exceeds the April 2019 peak (10).
	if count(22) <= count(10) {
		t.Errorf("COVID peak %d does not exceed STABLE peak %d", count(22), count(10))
	}
	// SET-UP ramps up: last SET-UP month well above the first.
	if float64(count(8)) < 1.5*float64(count(0)) {
		t.Errorf("SET-UP did not ramp: first=%d last=%d", count(0), count(8))
	}
	// Post-peak COVID decline.
	if count(24) >= count(22) {
		t.Errorf("no post-peak decline: apr=%d jun=%d", count(22), count(24))
	}
}

func TestVouchCopyOnlyFromFebruary2020(t *testing.T) {
	d, _ := generated(t)
	feb2020 := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range d.Contracts {
		if c.Type == forum.VouchCopy && c.Created.Before(feb2020) {
			t.Fatalf("VOUCH COPY created %v, before its introduction", c.Created)
		}
	}
	// And it does exist after introduction.
	n := 0
	for _, c := range d.Contracts {
		if c.Type == forum.VouchCopy {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no VOUCH COPY contracts at all")
	}
}

func TestVouchCopyNeverDenied(t *testing.T) {
	// Table 1: VOUCH COPY is the only type with no denials. The simulator
	// gives it zero denial weight.
	d, _ := generated(t)
	for _, c := range d.Contracts {
		if c.Type == forum.VouchCopy && c.Status == forum.StatusDenied {
			t.Fatalf("denied VOUCH COPY contract %d", c.ID)
		}
	}
}

func TestCompletionTimesDecline(t *testing.T) {
	d, _ := generated(t)
	meanIn := func(lo, hi int) float64 {
		var total float64
		var n int
		for _, c := range d.Contracts {
			m := int(dataset.MonthOf(c.Created))
			if m < lo || m > hi || !c.IsComplete() {
				continue
			}
			if dur, ok := c.CompletionTime(); ok {
				total += dur.Hours()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	early := meanIn(0, 2)  // Jun–Aug 2018
	late := meanIn(22, 24) // Apr–Jun 2020
	mid := meanIn(10, 12)  // Apr–Jun 2019
	if early <= mid || mid <= late {
		t.Errorf("completion times not declining: early=%.1fh mid=%.1fh late=%.1fh", early, mid, late)
	}
	if late > 25 {
		t.Errorf("late completion mean %.1fh, want near 10h", late)
	}
}

func TestDisputesPeakLateSetup(t *testing.T) {
	d, _ := generated(t)
	rate := func(lo, hi int) float64 {
		var disputed, total float64
		for _, c := range d.Contracts {
			m := int(dataset.MonthOf(c.Created))
			if m < lo || m > hi {
				continue
			}
			total++
			if c.Status == forum.StatusDisputed {
				disputed++
			}
		}
		return disputed / total
	}
	lateSetup := rate(3, 8)
	stable := rate(10, 20)
	if lateSetup < 1.5*stable {
		t.Errorf("late SET-UP dispute rate %.4f not elevated vs STABLE %.4f", lateSetup, stable)
	}
	if lateSetup < 0.015 || lateSetup > 0.04 {
		t.Errorf("late SET-UP dispute rate %.4f outside the 2-3%% band", lateSetup)
	}
}

func TestDisputedContractsArePublicWithText(t *testing.T) {
	d, _ := generated(t)
	for _, c := range d.Contracts {
		if c.Status == forum.StatusDisputed && !c.Public {
			t.Fatalf("disputed contract %d is private", c.ID)
		}
	}
}

func TestPrivateContractsHideObligations(t *testing.T) {
	d, _ := generated(t)
	for _, c := range d.Contracts {
		if !c.Public && (c.MakerObligation != "" || c.TakerObligation != "") {
			t.Fatalf("private contract %d has obligation text", c.ID)
		}
	}
	// Public completed contracts do carry text.
	withText, nCP := 0, 0
	for _, c := range d.Contracts {
		if !c.Public || !c.IsComplete() {
			continue
		}
		nCP++
		if c.MakerObligation != "" {
			withText++
		}
	}
	if float64(withText) < 0.9*float64(nCP) {
		t.Errorf("only %d/%d completed public contracts have text", withText, nCP)
	}
}

func TestGroundTruthPopulated(t *testing.T) {
	d, truth := generated(t)
	if len(truth.Class) != len(d.Users) {
		t.Errorf("truth classes %d for %d users", len(truth.Class), len(d.Users))
	}
	if len(truth.ValueUSD) != len(d.Contracts) {
		t.Errorf("truth values %d for %d contracts", len(truth.ValueUSD), len(d.Contracts))
	}
	// Vouch copies carry no economic value.
	for _, c := range d.Contracts {
		if c.Type == forum.VouchCopy && truth.ValueUSD[c.ID] != 0 {
			t.Fatalf("vouch copy %d has value %v", c.ID, truth.ValueUSD[c.ID])
		}
	}
}

func TestLedgerEvidenceConsistent(t *testing.T) {
	d, truth := generated(t)
	found, notFound := 0, 0
	for _, c := range d.Contracts {
		if c.TxHash == "" {
			continue
		}
		if _, ok := d.Ledger.LookupHash(c.TxHash); ok {
			found++
			if _, hasTruth := truth.LedgerValue[c.ID]; !hasTruth {
				t.Fatalf("ledger tx for contract %d missing from truth", c.ID)
			}
		} else {
			notFound++
		}
	}
	if found == 0 {
		t.Fatal("no chain-backed contracts generated")
	}
	// ~7% of evidence should dangle (the unconfirmable slice).
	frac := float64(notFound) / float64(found+notFound)
	if frac < 0.01 || frac > 0.2 {
		t.Errorf("dangling evidence fraction = %.3f, want ~0.07", frac)
	}
}

func TestTyposInjected(t *testing.T) {
	d, truth := generated(t)
	if len(truth.TypoContracts) == 0 {
		t.Skip("no typos at this scale/seed; acceptable but rare")
	}
	for id := range truth.TypoContracts {
		var c *forum.Contract
		for _, cc := range d.Contracts {
			if cc.ID == id {
				c = cc
				break
			}
		}
		if c == nil {
			t.Fatalf("typo contract %d not in dataset", id)
		}
		if !c.Public {
			t.Fatalf("typo contract %d is private (typos only injected into visible text)", id)
		}
	}
}

func TestPowerUserConcentration(t *testing.T) {
	d, _ := generated(t)
	// Figure 5 semantics: the top 5% of users (by participation count) are
	// *involved in* >70% of contracts — a union count, since a contract has
	// two parties.
	counts := map[forum.UserID]int{}
	for _, c := range d.Contracts {
		counts[c.Maker]++
		counts[c.Taker]++
	}
	type uc struct {
		id forum.UserID
		n  int
	}
	users := make([]uc, 0, len(counts))
	for id, n := range counts {
		users = append(users, uc{id, n})
	}
	sort.Slice(users, func(i, j int) bool { return users[i].n > users[j].n })
	top := map[forum.UserID]bool{}
	for i := 0; i < len(users)/20; i++ {
		top[users[i].id] = true
	}
	involved := 0
	for _, c := range d.Contracts {
		if top[c.Maker] || top[c.Taker] {
			involved++
		}
	}
	share := float64(involved) / float64(len(d.Contracts))
	if share < 0.6 {
		t.Errorf("top-5%% involvement share = %.3f, want > 0.6 (paper: >0.7)", share)
	}
}

func TestInjectTypo(t *testing.T) {
	got := injectTypo("selling $120.00 btc", 10)
	if got != "selling $1120.00 btc" {
		t.Errorf("injectTypo x10 = %q", got)
	}
	got100 := injectTypo("$9.50 deal", 100)
	if got100 != "$999.50 deal" {
		t.Errorf("injectTypo x100 = %q", got100)
	}
	// No dollar amount: unchanged.
	if got := injectTypo("no numbers here", 10); got != "no numbers here" {
		t.Errorf("injectTypo no-op = %q", got)
	}
}

func TestClassStrings(t *testing.T) {
	if ClassA.String() != "A" || ClassL.String() != "L" {
		t.Error("class letters wrong")
	}
}

func TestPopulationShareSums(t *testing.T) {
	total := 0.0
	for _, s := range populationShare {
		total += s
	}
	if math.Abs(total-1) > 0.08 {
		t.Errorf("population shares sum to %.3f", total)
	}
}

func TestFlowTablesReferenceValidClasses(t *testing.T) {
	for _, e := range dataset.Eras {
		for _, typ := range forum.ContractTypes {
			flows := flowTable(e, typ)
			if len(flows) == 0 {
				t.Fatalf("empty flow table for %v/%v", e, typ)
			}
			for _, f := range flows {
				if f.maker < 0 || f.maker >= NumClasses || f.taker < 0 || f.taker >= NumClasses {
					t.Fatalf("bad class in flow %+v", f)
				}
				if f.weight <= 0 {
					t.Fatalf("non-positive weight in flow %+v", f)
				}
			}
		}
	}
}

func TestTableEightTopFlowsPresent(t *testing.T) {
	// The #1 flows of Table 8 must lead their tables.
	checks := []struct {
		era          dataset.Era
		typ          forum.ContractType
		maker, taker Class
	}{
		{dataset.EraSetup, forum.Exchange, ClassF, ClassE},
		{dataset.EraStable, forum.Exchange, ClassF, ClassK},
		{dataset.EraCovid, forum.Exchange, ClassF, ClassK},
		{dataset.EraSetup, forum.Purchase, ClassH, ClassC},
		{dataset.EraStable, forum.Sale, ClassC, ClassL},
		{dataset.EraSetup, forum.Sale, ClassC, ClassJ},
	}
	for _, ch := range checks {
		flows := flowTable(ch.era, ch.typ)
		if flows[0].maker != ch.maker || flows[0].taker != ch.taker {
			t.Errorf("%v/%v top flow = %v→%v, want %v→%v",
				ch.era, ch.typ, flows[0].maker, flows[0].taker, ch.maker, ch.taker)
		}
	}
}

func TestSetupUsersHavePriorReputation(t *testing.T) {
	d, truth := generated(t)
	var setupRep, stableRep []float64
	for id, u := range d.Users {
		_ = truth.Class[id]
		joinedBeforeSystem := u.Joined.Before(dataset.SetupStart)
		m := dataset.MonthOf(u.Joined)
		switch {
		case joinedBeforeSystem || m < 9:
			setupRep = append(setupRep, float64(u.Reputation))
		case m >= 9 && m < 21:
			stableRep = append(stableRep, float64(u.Reputation))
		}
	}
	if med(setupRep) <= med(stableRep) {
		t.Errorf("SET-UP median reputation %.0f not above STABLE %.0f",
			med(setupRep), med(stableRep))
	}
}

func med(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if s[j] < s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	return s[len(s)/2]
}

// TestCategoriserAgreesWithGroundTruth closes the loop between the
// simulator and the text miner: the regex categoriser must re-derive the
// intended primary category from the generated obligation text for the
// overwhelming majority of public contracts.
func TestCategoriserAgreesWithGroundTruth(t *testing.T) {
	d, truth := generated(t)
	agree, total := 0, 0
	for _, c := range d.Contracts {
		if !c.Public || c.MakerObligation == "" {
			continue
		}
		want := truth.Category[c.ID]
		total++
		for _, got := range textmine.Categorize(c.MakerObligation + " " + c.TakerObligation) {
			if got == want {
				agree++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no classified contracts")
	}
	rate := float64(agree) / float64(total)
	if rate < 0.9 {
		t.Errorf("categoriser agreement with ground truth = %.3f, want >= 0.9", rate)
	}
}

// TestValueExtractionAgreesWithGroundTruth verifies the extracted USD
// value tracks the simulator's intended value for non-typo public
// completed contracts.
func TestValueExtractionAgreesWithGroundTruth(t *testing.T) {
	d, truth := generated(t)
	tab := fx.Default()
	var within, total int
	for _, c := range d.Contracts {
		if !c.Public || !c.IsComplete() || c.MakerObligation == "" {
			continue
		}
		want := truth.ValueUSD[c.ID]
		if want <= 0 || truth.TypoContracts[c.ID] {
			continue
		}
		at := c.Completed
		if at.IsZero() {
			at = c.Created
		}
		vals := textmine.ExtractValues(c.MakerObligation)
		if len(vals) == 0 {
			continue
		}
		usd, err := tab.ToUSD(vals[0].Amount, vals[0].Currency, at)
		if err != nil {
			continue
		}
		total++
		// The maker-side quote is one side of the deal; allow the premium
		// spread plus FX rounding.
		if usd > want*0.7 && usd < want*1.4 {
			within++
		}
	}
	if total < 100 {
		t.Fatalf("only %d extractable contracts", total)
	}
	rate := float64(within) / float64(total)
	if rate < 0.85 {
		t.Errorf("value extraction agreement = %.3f, want >= 0.85", rate)
	}
}

// TestChristmasSpike reproduces the §5.1 note of "a small spike in
// PURCHASE and EXCHANGE around Christmas/New Year 2019".
func TestChristmasSpike(t *testing.T) {
	d, _ := generated(t)
	shareIn := func(m int, typ forum.ContractType) float64 {
		var match, total float64
		for _, c := range d.Contracts {
			if int(dataset.MonthOf(c.Created)) != m {
				continue
			}
			total++
			if c.Type == typ {
				match++
			}
		}
		if total == 0 {
			return 0
		}
		return match / total
	}
	// December 2019 (month 18) vs its neighbours.
	for _, typ := range []forum.ContractType{forum.Purchase, forum.Exchange} {
		dec := shareIn(18, typ)
		nov := shareIn(17, typ)
		jan := shareIn(19, typ)
		if dec <= nov || dec <= jan {
			t.Errorf("%v share dec=%.3f not above nov=%.3f / jan=%.3f", typ, dec, nov, jan)
		}
	}
}
