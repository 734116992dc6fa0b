package analysis

import (
	"testing"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/rng"
)

func TestZIPAllUsersTableNine(t *testing.T) {
	d := corpus(t)
	results, err := ZIPAllUsers(NewIndex(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d era models", len(results))
	}
	for i, r := range results {
		if r.Era != dataset.Eras[i] {
			t.Errorf("era %d = %v", i, r.Era)
		}
		m := r.Model
		if !m.Converged {
			t.Errorf("%v model did not converge", r.Era)
		}
		if m.N != r.Records {
			t.Errorf("%v: model N %d vs records %d", r.Era, m.N, r.Records)
		}
		if m.PctZero <= 0 || m.PctZero >= 100 {
			t.Errorf("%v pct zero = %v", r.Era, m.PctZero)
		}
		if m.McFadden < 0.2 || m.McFadden > 0.95 {
			t.Errorf("%v McFadden = %v", r.Era, m.McFadden)
		}
		// The covariate sets match the paper's Table 9 layout.
		wantCount := 9
		wantZero := 5
		if r.Era == dataset.EraSetup {
			wantCount, wantZero = 8, 4 // no first-time covariate
		}
		if len(m.Count.Names) != wantCount {
			t.Errorf("%v count covariates = %v", r.Era, m.Count.Names)
		}
		if len(m.Zero.Names) != wantZero {
			t.Errorf("%v zero covariates = %v", r.Era, m.Zero.Names)
		}
		// Activity covariates drive completion: marketplace posts and
		// positive ratings positive and significant in every era.
		idx := func(block []string, name string) int {
			for j, n := range block {
				if n == name {
					return j
				}
			}
			t.Fatalf("%v missing covariate %s", r.Era, name)
			return -1
		}
		// Activity drives completion: in STABLE (the largest sample) the
		// marketplace-posts and positive-rating coefficients are positive
		// and strongly significant; smaller eras are noisier at test scale.
		if r.Era == dataset.EraStable {
			j := idx(m.Count.Names, "Marketplace Post Count")
			if m.Count.Coef[j] <= 0 || m.Count.PValues[j] > 0.001 {
				t.Errorf("%v marketplace posts coef = %v (p=%v)", r.Era, m.Count.Coef[j], m.Count.PValues[j])
			}
			j = idx(m.Count.Names, "Positive Rating")
			if m.Count.Coef[j] <= 0 {
				t.Errorf("%v positive rating coef = %v", r.Era, m.Count.Coef[j])
			}
		}
		// Negative ratings lower the odds of zero completed contracts.
		if jz := idx(m.Zero.Names, "Negative Rating"); m.Zero.Coef[jz] >= 0 {
			t.Errorf("%v zero-model negative rating coef = %v, want negative", r.Era, m.Zero.Coef[jz])
		}
	}
	// The Vuong statistic favours ZIP over plain Poisson on this data.
	favoured := 0
	for _, r := range results {
		if r.Model.Vuong > 0 {
			favoured++
		}
	}
	if favoured < 2 {
		t.Errorf("Vuong favours ZIP in only %d/3 eras", favoured)
	}
}

func TestZIPSubgroupsTableTen(t *testing.T) {
	d := corpus(t)
	results, err := ZIPSubgroups(NewIndex(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d subgroup models", len(results))
	}
	seen := map[string]bool{}
	var firstTimeN, existingN int
	for _, r := range results {
		key := r.Era.String() + "/" + r.Subset
		if seen[key] {
			t.Fatalf("duplicate model %s", key)
		}
		seen[key] = true
		if !r.Model.Converged {
			t.Errorf("%s did not converge", key)
		}
		// Sub-sample designs drop the first-time covariate.
		for _, n := range r.Model.Count.Names {
			if n == "First-Time Contract User" {
				t.Errorf("%s retains the first-time covariate", key)
			}
		}
		if r.Era == dataset.EraStable {
			if r.Subset == "first-time" {
				firstTimeN = r.Records
			} else {
				existingN = r.Records
			}
		}
	}
	// STABLE has far more first-time than existing users (paper: 16,123
	// vs 3,534).
	if firstTimeN <= existingN {
		t.Errorf("STABLE first-time %d not above existing %d", firstTimeN, existingN)
	}
}

func TestZIPRecordsConsistency(t *testing.T) {
	d := corpus(t)
	ix := NewIndex(d)
	all := zipRecords(ix, dataset.EraStable, "all")
	ft := zipRecords(ix, dataset.EraStable, "first-time")
	ex := zipRecords(ix, dataset.EraStable, "existing")
	if len(ft)+len(ex) != len(all) {
		t.Fatalf("subsets %d+%d != all %d", len(ft), len(ex), len(all))
	}
	for _, r := range ft {
		if !r.FirstTime {
			t.Fatal("non-first-time record in first-time subset")
		}
	}
	for _, r := range all {
		if r.Initiated == 0 && r.Accepted == 0 {
			// Every record stems from a contract; makers always count as
			// initiators, but takers of never-accepted contracts have
			// zero accepted. They must still have been a party.
			if r.Completed > 0 {
				t.Fatalf("record with completions but no activity: %+v", r)
			}
		}
		if r.LengthDays < 0 {
			t.Fatalf("negative length: %+v", r)
		}
	}
}

func TestLatentClassesTableSix(t *testing.T) {
	d := smallCorpus(t)
	ltm, err := LatentClasses(d, LTMOptions{K: 8, Restarts: 2}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if ltm.Fit.K != 8 {
		t.Fatalf("K = %d", ltm.Fit.K)
	}
	// Class weights form a distribution.
	sum := 0.0
	for _, w := range ltm.Fit.Weights {
		sum += w
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %v", sum)
	}
	// The fitted classes must separate the market's two big poles: a
	// SALE-maker-dominated class and a heavy SALE-taker class.
	makerClass, takerClass := -1, -1
	for c := 0; c < ltm.Fit.K; c++ {
		makeSale := ltm.Fit.Rates[c][int(forum.Sale)]
		takeSale := ltm.Fit.Rates[c][forum.NumContractTypes+int(forum.Sale)]
		if makeSale > 0.5 && makeSale > 3*takeSale && makerClass == -1 {
			makerClass = c
		}
		if takeSale > 5 && takerClass == -1 {
			takerClass = c
		}
	}
	if makerClass == -1 {
		t.Error("no SALE-maker class recovered")
	}
	if takerClass == -1 {
		t.Error("no heavy SALE-taker class recovered")
	}
	// Series totals match the number of attributable transactions.
	madeTotal := 0
	for c := range ltm.MadeSeries {
		for m := 0; m < dataset.NumMonths; m++ {
			for typ := 0; typ < forum.NumContractTypes; typ++ {
				madeTotal += ltm.MadeSeries[c][m][typ]
			}
		}
	}
	if madeTotal != len(d.Contracts) {
		t.Errorf("made series total %d, want %d", madeTotal, len(d.Contracts))
	}
	// Transition matrix rows are distributions (or all-zero).
	for i, row := range ltm.Transition {
		s := 0.0
		for _, v := range row {
			s += v
		}
		if s != 0 && (s < 0.999 || s > 1.001) {
			t.Errorf("transition row %d sums to %v", i, s)
		}
	}
}

func TestLTMErrors(t *testing.T) {
	d := smallCorpus(t)
	if _, err := LatentClasses(d, LTMOptions{K: 0}, rng.New(1)); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := LatentClasses(d, LTMOptions{K: 1 << 30}, rng.New(1)); err == nil {
		t.Error("absurd K accepted")
	}
}

func TestFlowsTableEight(t *testing.T) {
	d := smallCorpus(t)
	ltm, err := LatentClasses(d, LTMOptions{K: 8, Restarts: 2}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	flows := Flows(d, ltm)
	for _, e := range dataset.Eras {
		top := flows.Top(e, forum.Sale, 3)
		if len(top) == 0 {
			t.Fatalf("no SALE flows in %v", e)
		}
		// Shares are sorted descending and within (0, 1].
		for i, f := range top {
			if f.Share <= 0 || f.Share > 1 {
				t.Fatalf("%v flow share %v", e, f.Share)
			}
			if i > 0 && f.Share > top[i-1].Share {
				t.Fatalf("%v flows not sorted", e)
			}
			if f.AvgPerMonth <= 0 {
				t.Fatalf("%v flow avg %v", e, f.AvgPerMonth)
			}
		}
		// All shares for a type sum to at most 1.
		total := 0.0
		for _, f := range flows.Flows[e][forum.Sale] {
			total += f.Share
		}
		if total > 1.0001 {
			t.Fatalf("%v SALE flow shares sum to %v", e, total)
		}
	}
	// In STABLE the dominant SALE flow lands on a heavy SALE-taker class
	// (the C→L pattern of Table 8).
	top := flows.Top(dataset.EraStable, forum.Sale, 1)[0]
	takeRate := ltm.Fit.Rates[top.TakerClass][forum.NumContractTypes+int(forum.Sale)]
	if takeRate < 1 {
		t.Errorf("top STABLE SALE flow taker class has take-rate %v", takeRate)
	}
}

func TestLTMDispersionNearOne(t *testing.T) {
	d := smallCorpus(t)
	ltm, err := LatentClasses(d, LTMOptions{K: 8, Restarts: 2}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	// Pearson dispersion of the user-month counts against their fitted
	// class rates, pooled over all dimensions: Σ (y − μ)² / μ / (n − p).
	var chi2 float64
	n := 0
	for i, o := range ltm.Obs {
		rates := ltm.Fit.Rates[ltm.Fit.Assignment[i]]
		for j, y := range o.Counts {
			if mu := rates[j]; mu > 0 {
				chi2 += (y - mu) * (y - mu) / mu
				n++
			}
		}
	}
	phi := chi2 / float64(n-ltm.Fit.K*len(ltm.Obs[0].Counts))
	// The paper: "non-overdispersed count data" justifies the Poisson
	// emission. With enough classes the within-class dispersion should be
	// near 1; far above 2 would contradict the modelling choice.
	if phi <= 0 || phi > 2.5 {
		t.Errorf("Pearson dispersion = %.2f, want ~1", phi)
	}
}
