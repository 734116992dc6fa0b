package report

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"turnup/internal/analysis"
	"turnup/internal/dataset"
	"turnup/internal/market"
	"turnup/internal/rng"
	"turnup/internal/stats"
)

// The renderer tests share one tiny corpus and suite.
var (
	rptOnce  sync.Once
	rptSuite *analysis.Suite
)

func suite(t *testing.T) *analysis.Suite {
	t.Helper()
	rptOnce.Do(func() {
		d, _, err := market.Generate(market.Config{Seed: 3, Scale: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		s, err := analysis.RunSuiteCtx(context.Background(), d, analysis.SuiteOptions{LatentClassK: 6}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		rptSuite = s
	})
	return rptSuite
}

func TestTaxonomyRenderer(t *testing.T) {
	out := Taxonomy(suite(t).Taxonomy)
	for _, want := range []string{"Table 1", "SALE", "EXCHANGE", "VOUCH COPY", "Complete", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Taxonomy output missing %q", want)
		}
	}
	// 5 type rows + totals row + header + rule.
	if lines := strings.Count(out, "\n"); lines < 8 {
		t.Errorf("Taxonomy output too short: %d lines", lines)
	}
}

func TestVisibilityRenderer(t *testing.T) {
	out := Visibility(suite(t).Visibility)
	if !strings.Contains(out, "SALE Created") || !strings.Contains(out, "SALE Completed") {
		t.Errorf("Visibility output missing rows:\n%s", out)
	}
}

func TestActivitiesRenderer(t *testing.T) {
	out := Activities(suite(t).Activities, 15)
	if !strings.Contains(out, "currency exchange") || !strings.Contains(out, "All Trading Activities") {
		t.Errorf("Activities output missing rows")
	}
}

func TestPaymentsRenderer(t *testing.T) {
	out := Payments(suite(t).Payments, 10)
	if !strings.Contains(out, "Bitcoin") || !strings.Contains(out, "All Methods") {
		t.Errorf("Payments output missing rows")
	}
}

func TestValuesRenderer(t *testing.T) {
	out := Values(suite(t).Values, 10)
	for _, want := range []string{"Table 5", "Total public value", "High-value audit", "Extrapolated"} {
		if !strings.Contains(out, want) {
			t.Errorf("Values output missing %q", want)
		}
	}
}

func TestSeriesRenderers(t *testing.T) {
	s := suite(t)
	cases := map[string]string{
		"Figure 1":  Growth(s.Growth),
		"Figure 2":  PublicTrend(s.PublicTrend),
		"Figure 3":  TypeShares(s.TypeShares),
		"Figure 4":  CompletionTimes(s.CompletionTimes),
		"Figure 5":  Concentration(s.Concentration),
		"Figure 6":  KeyShares(s.KeyShares),
		"Figure 8":  DegreeGrowth(s.DegreeGrowth),
		"Figure 9":  ProductTrend(s.Products),
		"Figure 10": PaymentTrend(s.PaymentTrend),
		"Figure 11": ValueTrend(s.ValueTrend),
		"§4.3":      Participation(s.Participation),
		"§5.1":      Disputes(s.Disputes),
	}
	for want, out := range cases {
		if !strings.Contains(out, want) {
			t.Errorf("renderer output missing header %q:\n%.120s", want, out)
		}
		if len(out) < 50 {
			t.Errorf("%s output suspiciously short", want)
		}
	}
}

func TestDegreeDistRenderer(t *testing.T) {
	out := DegreeDist("created", suite(t).DegreesCreated)
	if !strings.Contains(out, "raw") || !strings.Contains(out, "outbound") {
		t.Errorf("DegreeDist output missing kinds:\n%s", out)
	}
}

func TestModelRenderers(t *testing.T) {
	s := suite(t)
	if s.LTM == nil {
		t.Fatal("suite has no LTM")
	}
	lc := LatentClasses(s.LTM)
	if !strings.Contains(lc, "Table 6") || !strings.Contains(lc, "log-likelihood") {
		t.Errorf("LatentClasses output:\n%.200s", lc)
	}
	ca := ClassActivity(s.LTM, true)
	if !strings.Contains(ca, "Figure 12") {
		t.Errorf("ClassActivity made output:\n%.200s", ca)
	}
	ca13 := ClassActivity(s.LTM, false)
	if !strings.Contains(ca13, "Figure 13") {
		t.Errorf("ClassActivity accepted output:\n%.200s", ca13)
	}
	fl := Flows(s.Flows, s.LTM)
	if !strings.Contains(fl, "Table 8") || !strings.Contains(fl, "SET-UP") {
		t.Errorf("Flows output:\n%.200s", fl)
	}
	cs := ColdStart(s.ColdStart)
	if !strings.Contains(cs, "Table 7") || !strings.Contains(cs, "median lifespan") {
		t.Errorf("ColdStart output:\n%.200s", cs)
	}
	zm := ZIPModels("Table 9: test", s.ZIPAll)
	for _, want := range []string{"Count model", "Zero-inflation model", "Vuong", "McFadden"} {
		if !strings.Contains(zm, want) {
			t.Errorf("ZIPModels output missing %q", want)
		}
	}
}

func TestCompareAgainstSuite(t *testing.T) {
	rows := Compare(suite(t))
	if len(rows) < 45 {
		t.Fatalf("only %d comparison rows", len(rows))
	}
	ids := map[string]bool{}
	for _, r := range rows {
		ids[r.ID] = true
		if r.Metric == "" || r.Paper == "" || r.Measured == "" {
			t.Errorf("incomplete row: %+v", r)
		}
	}
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Table 6", "Table 7", "Table 8", "Table 9", "Table 10",
		"Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6", "Fig 7", "Fig 8",
		"§4.3", "§4.5", "§5.1", "§5.2", "§2.2",
	} {
		if !ids[want] {
			t.Errorf("no comparison rows for %s", want)
		}
	}
}

func TestZIPModelsMarksUnidentifiedAndUnconverged(t *testing.T) {
	nan := math.NaN()
	block := func(names []string, identified []bool) *stats.CoefBlock {
		b := &stats.CoefBlock{Names: names, Identified: identified}
		for _, id := range identified {
			if id {
				b.Coef = append(b.Coef, 0.5)
				b.StdErr = append(b.StdErr, 0.1)
				b.ZValues = append(b.ZValues, 5)
				b.PValues = append(b.PValues, 1e-6)
			} else {
				b.Coef = append(b.Coef, -12.5)
				b.StdErr = append(b.StdErr, nan)
				b.ZValues = append(b.ZValues, nan)
				b.PValues = append(b.PValues, nan)
			}
		}
		return b
	}
	count := block([]string{"(Intercept)", "Disputes"}, []bool{true, true})
	results := []analysis.ZIPEraResult{
		{Era: dataset.EraStable, Subset: "all", Model: &stats.ZIPResult{
			Count: count, Zero: block([]string{"(Intercept)", "Disputes"}, []bool{true, false}), Converged: true}},
		{Era: dataset.EraCovid, Subset: "all", Model: &stats.ZIPResult{
			Count: count, Zero: block([]string{"(Intercept)", "Disputes"}, []bool{false, false})}},
	}
	out := ZIPModels("Table 9: test", results)
	stable, covid, _ := strings.Cut(out, "\nCOVID-19")
	if strings.Contains(stable, "not converged") || !strings.Contains(covid, "[not converged]\n") {
		t.Errorf("convergence marks misplaced:\n%s", out)
	}
	if !strings.Contains(stable, "    Disputes                     not identified\n") ||
		!strings.Contains(stable, "    (Intercept)                      0.500  (se   0.100)  z=    5.00 ***\n") {
		t.Errorf("STABLE zero part:\n%s", stable)
	}
	if !strings.Contains(covid, "  Zero-inflation model: zero part not identified\n") {
		t.Errorf("COVID-19 zero part:\n%s", covid)
	}
	for _, bad := range []string{"NaN", "-12.5"} {
		if strings.Contains(out, bad) {
			t.Errorf("output shows an unidentified coefficient's %q:\n%s", bad, out)
		}
	}
}
