package analysis

import (
	"testing"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/graph"
	"turnup/internal/rng"
	"turnup/internal/textmine"
)

func TestDegreeDistFigureSeven(t *testing.T) {
	d := corpus(t)
	created := DegreeDist(d.Contracts)
	completed := DegreeDist(NewIndex(d).Completed())
	if created.Nodes == 0 || completed.Nodes <= 0 {
		t.Fatal("empty networks")
	}
	if completed.Nodes >= created.Nodes {
		t.Error("completed network not smaller than created")
	}
	// Max outbound far below max raw; raw and inbound maxima close.
	if created.Max[graph.Outbound]*2 > created.Max[graph.Raw] {
		t.Errorf("outbound max %d not well below raw max %d",
			created.Max[graph.Outbound], created.Max[graph.Raw])
	}
	ratio := float64(created.Max[graph.Inbound]) / float64(created.Max[graph.Raw])
	if ratio < 0.9 {
		t.Errorf("inbound/raw max ratio = %.3f, want near 1", ratio)
	}
	// Power-law fits exist and have plausible exponents.
	for _, k := range []graph.DegreeKind{graph.Raw, graph.Inbound} {
		fit := created.PowerLaw[k]
		if fit == nil {
			t.Fatalf("no power-law fit for %v", k)
		}
		if fit.Alpha < 1.2 || fit.Alpha > 4.5 {
			t.Errorf("%v alpha = %.2f", k, fit.Alpha)
		}
	}
	// Most nodes have small degrees (1-15), with a long tail.
	small := 0
	total := 0
	for deg, n := range created.Histogram[graph.Raw] {
		total += n
		if deg <= 15 {
			small += n
		}
	}
	if float64(small) < 0.88*float64(total) {
		t.Errorf("only %d/%d nodes with degree <= 15", small, total)
	}
}

func TestDegreeGrowthFigureEight(t *testing.T) {
	d := corpus(t)
	g := DegreeGrowthTrend(NewIndex(d), false)
	// Cumulative maxima are non-decreasing.
	for m := 1; m < dataset.NumMonths; m++ {
		if g.MaxRaw[m] < g.MaxRaw[m-1] || g.MaxInbound[m] < g.MaxInbound[m-1] ||
			g.MaxOutbound[m] < g.MaxOutbound[m-1] {
			t.Fatalf("max degree decreased at month %d", m)
		}
	}
	// Raw and inbound maxima nearly identical; outbound much smaller.
	last := dataset.NumMonths - 1
	if g.MaxInbound[last]*10 < g.MaxRaw[last]*9 {
		t.Errorf("inbound max %d not tracking raw max %d", g.MaxInbound[last], g.MaxRaw[last])
	}
	if g.MaxOutbound[last]*2 > g.MaxRaw[last] {
		t.Errorf("outbound max %d too close to raw max %d", g.MaxOutbound[last], g.MaxRaw[last])
	}
	// Big uplift during STABLE.
	if g.MaxRaw[20] < 2*g.MaxRaw[8] {
		t.Errorf("no STABLE uplift: end-SET-UP %d vs late-STABLE %d", g.MaxRaw[8], g.MaxRaw[20])
	}
	// Mean degree grows gradually.
	if g.MeanRaw[last] <= g.MeanRaw[5] {
		t.Error("mean degree did not grow")
	}
	// Completed variant produces smaller maxima.
	gc := DegreeGrowthTrend(NewIndex(d), true)
	if gc.MaxRaw[last] >= g.MaxRaw[last] {
		t.Error("completed network max not below created")
	}
}

func TestActivitiesTableThree(t *testing.T) {
	d := corpus(t)
	r := Activities(NewIndex(d))
	if len(r.Rows) < 10 {
		t.Fatalf("only %d activity rows", len(r.Rows))
	}
	if r.Rows[0].Category != textmine.CurrencyExchange {
		t.Errorf("top activity = %v, want currency exchange", r.Rows[0].Category)
	}
	if r.Rows[1].Category != textmine.Payments {
		t.Errorf("second activity = %v, want payments", r.Rows[1].Category)
	}
	if r.Rows[2].Category != textmine.Giftcard {
		t.Errorf("third activity = %v, want giftcard", r.Rows[2].Category)
	}
	// Currency exchange ≈ 75% of classified contracts, well above payments.
	ceShare := float64(r.Rows[0].Both.Contracts) / float64(r.Total.Both.Contracts)
	if ceShare < 0.55 || ceShare > 0.85 {
		t.Errorf("currency exchange share = %.3f, want ~0.75", ceShare)
	}
	if float64(r.Rows[0].Both.Contracts) < 1.3*float64(r.Rows[1].Both.Contracts) {
		t.Error("currency exchange not well above payments")
	}
	// The union total is below the per-category sum (multi-category).
	sum := 0
	for _, row := range r.Rows {
		sum += row.Both.Contracts
	}
	if r.Total.Both.Contracts >= sum {
		t.Errorf("total %d not below category sum %d", r.Total.Both.Contracts, sum)
	}
	// Users involved never exceed contracts matched per side by definition
	// of distinctness... (users <= contracts on each side).
	for _, row := range r.Rows {
		if row.Makers.Users > row.Makers.Contracts && row.Makers.Contracts > 0 {
			t.Errorf("%v: %d maker users for %d contracts", row.Category, row.Makers.Users, row.Makers.Contracts)
		}
	}
}

func TestProductTrendsFigureNine(t *testing.T) {
	d := corpus(t)
	tr := ProductTrends(NewIndex(d))
	if len(tr.Categories) != 5 {
		t.Fatalf("top categories = %v", tr.Categories)
	}
	for _, cat := range tr.Categories {
		if cat == textmine.CurrencyExchange || cat == textmine.Payments {
			t.Fatalf("excluded category %v present", cat)
		}
		if _, ok := tr.Counts[cat]; !ok {
			t.Fatalf("no series for %v", cat)
		}
	}
	// Giftcard should be among the top five products.
	found := false
	for _, cat := range tr.Categories {
		if cat == textmine.Giftcard {
			found = true
		}
	}
	if !found {
		t.Errorf("giftcard missing from top products: %v", tr.Categories)
	}
	// COVID stimulus: April 2020 counts above February 2020 for the top product.
	top := tr.Categories[0]
	if tr.Counts[top][22] <= tr.Counts[top][20]/2 {
		t.Errorf("no COVID uplift for %v: feb=%d apr=%d", top, tr.Counts[top][20], tr.Counts[top][22])
	}
}

func TestPaymentMethodsTableFour(t *testing.T) {
	d := corpus(t)
	r := PaymentMethods(NewIndex(d))
	if len(r.Rows) < 8 {
		t.Fatalf("only %d method rows", len(r.Rows))
	}
	if r.Rows[0].Method != textmine.MBitcoin {
		t.Errorf("top method = %v", r.Rows[0].Method)
	}
	if r.Rows[1].Method != textmine.MPayPal {
		t.Errorf("second method = %v", r.Rows[1].Method)
	}
	if r.Rows[2].Method != textmine.MAmazonGC {
		t.Errorf("third method = %v", r.Rows[2].Method)
	}
	btcShare := float64(r.Rows[0].Both.Contracts) / float64(r.Total.Both.Contracts)
	if btcShare < 0.6 || btcShare > 0.9 {
		t.Errorf("Bitcoin share = %.3f, want ~0.75", btcShare)
	}
	// Bitcoin comfortably above PayPal.
	if float64(r.Rows[0].Both.Contracts) < 1.2*float64(r.Rows[1].Both.Contracts) {
		t.Error("Bitcoin not well above PayPal")
	}
}

func TestPaymentTrendsFigureTen(t *testing.T) {
	d := corpus(t)
	tr := PaymentTrends(NewIndex(d))
	if len(tr.Methods) != 5 {
		t.Fatalf("top methods = %v", tr.Methods)
	}
	if tr.Methods[0] != textmine.MBitcoin || tr.Methods[1] != textmine.MPayPal {
		t.Errorf("top methods = %v", tr.Methods)
	}
	// Bitcoin's series dominates PayPal's in most months.
	btc := tr.Counts[textmine.MBitcoin]
	pp := tr.Counts[textmine.MPayPal]
	wins := 0
	for m := 0; m < dataset.NumMonths; m++ {
		if btc[m] >= pp[m] {
			wins++
		}
	}
	if wins < 18 {
		t.Errorf("Bitcoin above PayPal in only %d months", wins)
	}
}

func TestValuesSectionFourFive(t *testing.T) {
	d := corpus(t)
	r := Values(NewIndex(d))
	if len(r.PerContract) == 0 {
		t.Fatal("no valued contracts")
	}
	if r.TotalUSD <= 0 || r.MeanUSD <= 0 {
		t.Fatalf("totals: %v / %v", r.TotalUSD, r.MeanUSD)
	}
	// Average contract value in the tens-of-dollars band (paper: $85).
	if r.MeanUSD < 30 || r.MeanUSD > 200 {
		t.Errorf("mean value = $%.1f", r.MeanUSD)
	}
	if r.MaxUSD > 10000 {
		t.Errorf("max value = $%.0f exceeds the plausible cap", r.MaxUSD)
	}
	// Extrapolation scales up by roughly the private multiple (~5-7x).
	scale := r.ExtrapolatedUSD / r.TotalUSD
	if scale < 3 || scale > 10 {
		t.Errorf("extrapolation scale = %.2f", scale)
	}
	// VOUCH COPY never contributes value.
	if _, ok := r.ByType[forum.VouchCopy]; ok {
		t.Error("VOUCH COPY in value-by-type")
	}
	// Currency exchange is the top activity by value; Bitcoin top method.
	if r.ActivityValues[0].Category != textmine.CurrencyExchange {
		t.Errorf("top value activity = %v", r.ActivityValues[0].Category)
	}
	if r.MethodValues[0].Method != textmine.MBitcoin {
		t.Errorf("top value method = %v", r.MethodValues[0].Method)
	}
	// Bitcoin value at least double third place.
	if len(r.MethodValues) > 2 && r.MethodValues[0].TotalUSD() < 2*r.MethodValues[2].TotalUSD() {
		t.Error("Bitcoin value not dominant")
	}
	// Concentration of value.
	if r.TopDecileShare < 0.5 {
		t.Errorf("top decile value share = %.3f", r.TopDecileShare)
	}
	// Audit ran and classified everything it saw.
	if r.Audit.HighValue != r.Audit.Confirmed+r.Audit.Revised+r.Audit.Unclear {
		t.Errorf("audit buckets inconsistent: %+v", r.Audit)
	}
	if r.Audit.HighValue == 0 {
		t.Error("no high-value contracts found")
	}
}

func TestValueTrendsFigureEleven(t *testing.T) {
	d := corpus(t)
	report := Values(NewIndex(d))
	tr := ValueTrends(NewIndex(d), report)
	// Monthly by-type totals reconstruct the overall total.
	sum := 0.0
	for _, series := range tr.ByType {
		for _, v := range series {
			sum += v
		}
	}
	if diff := sum - report.TotalUSD; diff > 1 || diff < -1 {
		t.Errorf("by-type monthly sum %v != total %v", sum, report.TotalUSD)
	}
	if len(tr.Methods) != 5 || len(tr.Categories) != 5 {
		t.Fatalf("top lists: %v / %v", tr.Methods, tr.Categories)
	}
	// EXCHANGE carries the highest value overall.
	var exSum, trSum float64
	for _, v := range tr.ByType[forum.Exchange] {
		exSum += v
	}
	for _, v := range tr.ByType[forum.Trade] {
		trSum += v
	}
	if exSum <= trSum {
		t.Error("EXCHANGE value not above TRADE")
	}
}

func TestColdStartSectionFiveTwo(t *testing.T) {
	d := corpus(t)
	r, err := ColdStart(NewIndex(d), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if r.N < 100 {
		t.Fatalf("only %d cold starters", r.N)
	}
	if r.MainClusterShare < 0.8 || r.MainClusterShare >= 1 {
		t.Errorf("main cluster share = %.3f", r.MainClusterShare)
	}
	if len(r.OutlierClusters) == 0 || len(r.OutlierClusters) > 8 {
		t.Fatalf("%d outlier clusters", len(r.OutlierClusters))
	}
	// Cluster sizes sorted descending and sum to the outlier count.
	total := 0
	for i, c := range r.OutlierClusters {
		total += c.Size
		if i > 0 && c.Size > r.OutlierClusters[i-1].Size {
			t.Error("clusters not sorted by size")
		}
	}
	if total != r.OutlierCount {
		t.Errorf("cluster sizes sum to %d, want %d", total, r.OutlierCount)
	}
	// Outliers live much longer and continue into COVID more often.
	if r.MedianLifespanOutlierDays < 5*r.MedianLifespanAllDays {
		t.Errorf("outlier lifespan %.1fd not far above all %.1fd",
			r.MedianLifespanOutlierDays, r.MedianLifespanAllDays)
	}
	if r.ContinueIntoCovidOutliers <= r.ContinueIntoCovidAll {
		t.Error("outliers not more likely to continue into COVID")
	}
	// SET-UP starters carry more reputation than STABLE cold starters.
	if r.MedianReputationSetup <= r.MedianReputationAll {
		t.Errorf("SET-UP reputation %.0f not above STABLE starters %.0f",
			r.MedianReputationSetup, r.MedianReputationAll)
	}
}

func TestChangePointsNearEraBoundaries(t *testing.T) {
	d := corpus(t)
	points := ChangePoints(NewIndex(d), 3)
	if len(points) == 0 {
		t.Fatal("no change points")
	}
	// The strongest break is at the contracts-mandatory boundary
	// (month 9 ± 1), supporting the deductively imposed eras.
	first := int(points[0].Month)
	if first < 8 || first > 11 {
		t.Errorf("strongest break at month %d, want near 9", first)
	}
	// Some detected break lies in the COVID window (months 21-23).
	foundCovid := false
	for _, p := range points {
		if p.Month >= 21 && p.Month <= 23 {
			foundCovid = true
		}
	}
	if !foundCovid {
		t.Errorf("no break detected in the COVID window: %+v", points)
	}
}
