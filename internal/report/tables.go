package report

import (
	"fmt"
	"strings"

	"turnup/internal/analysis"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/graph"
	"turnup/internal/stats"
)

// Taxonomy renders Table 1.
func Taxonomy(r analysis.TaxonomyResult) string {
	headers := append([]string{"Type\\Status"}, analysis.BucketNames[:]...)
	headers = append(headers, "Total")
	var rows [][]string
	for _, typ := range forum.ContractTypes {
		row := []string{typ.String()}
		for b := analysis.Bucket(0); b < analysis.NumBuckets; b++ {
			n := r.Counts[typ][b]
			row = append(row, fmt.Sprintf("%s (%s)", Count(n), Pct(r.Share(typ, b))))
		}
		row = append(row, Count(r.TypeTotal(typ)))
		rows = append(rows, row)
	}
	totalRow := []string{"Total"}
	for b := analysis.Bucket(0); b < analysis.NumBuckets; b++ {
		n := r.BucketTotal(b)
		totalRow = append(totalRow, fmt.Sprintf("%s (%s)", Count(n), Pct(float64(n)/float64(max(r.Total, 1)))))
	}
	totalRow = append(totalRow, Count(r.Total))
	rows = append(rows, totalRow)
	return "Table 1: Taxonomy of collected contracts\n" + Table(headers, rows)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Visibility renders Table 2.
func Visibility(r analysis.VisibilityResult) string {
	headers := []string{"Type\\Visibility", "Private", "Public", "Total"}
	var rows [][]string
	for _, row := range r.Rows {
		label := row.Type.String() + " Created"
		if row.Completed {
			label = row.Type.String() + " Completed"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%s (%s)", Count(row.Private), Pct(1-row.PublicShare())),
			fmt.Sprintf("%s (%s)", Count(row.Public), Pct(row.PublicShare())),
			Count(row.Total()),
		})
	}
	return "Table 2: Visibility of contract types\n" + Table(headers, rows)
}

// Activities renders Table 3 (top n rows).
func Activities(r analysis.ActivitiesResult, n int) string {
	headers := []string{"Trading Activities", "Makers Side", "Takers Side", "Both Sides"}
	var rows [][]string
	for i, row := range r.Rows {
		if i == n {
			break
		}
		rows = append(rows, []string{
			string(row.Category),
			CountPair(row.Makers.Contracts, row.Makers.Users),
			CountPair(row.Takers.Contracts, row.Takers.Users),
			CountPair(row.Both.Contracts, row.Both.Users),
		})
	}
	rows = append(rows, []string{
		"All Trading Activities",
		CountPair(r.Total.Makers.Contracts, r.Total.Makers.Users),
		CountPair(r.Total.Takers.Contracts, r.Total.Takers.Users),
		CountPair(r.Total.Both.Contracts, r.Total.Both.Users),
	})
	return fmt.Sprintf("Table 3: Completed public contracts in the top %d trading activities\n", n) +
		Table(headers, rows)
}

// Payments renders Table 4 (top n rows).
func Payments(r analysis.PaymentsResult, n int) string {
	headers := []string{"Payment Methods", "Makers Side", "Takers Side", "Both Sides"}
	var rows [][]string
	for i, row := range r.Rows {
		if i == n {
			break
		}
		rows = append(rows, []string{
			string(row.Method),
			CountPair(row.Makers.Contracts, row.Makers.Users),
			CountPair(row.Takers.Contracts, row.Takers.Users),
			CountPair(row.Both.Contracts, row.Both.Users),
		})
	}
	rows = append(rows, []string{
		"All Methods",
		CountPair(r.Total.Makers.Contracts, r.Total.Makers.Users),
		CountPair(r.Total.Takers.Contracts, r.Total.Takers.Users),
		CountPair(r.Total.Both.Contracts, r.Total.Both.Users),
	})
	return fmt.Sprintf("Table 4: Completed public contracts in the top %d payment methods\n", n) +
		Table(headers, rows)
}

// Values renders Table 5 plus the §4.5 headline numbers.
func Values(r analysis.ValueReport, n int) string {
	var b strings.Builder
	b.WriteString("Table 5: Top trading activities and payment methods by contract values\n")
	headers := []string{"Trading Activities", "Value (Makers)", "Value (Takers)", "In Total"}
	var rows [][]string
	for i, row := range r.ActivityValues {
		if i == n {
			break
		}
		rows = append(rows, []string{string(row.Category), USD(row.MakersUSD), USD(row.TakersUSD), USD(row.TotalUSD())})
	}
	b.WriteString(Table(headers, rows))
	b.WriteByte('\n')
	headers = []string{"Payment Methods", "Value (Makers)", "Value (Takers)", "In Total"}
	rows = rows[:0]
	for i, row := range r.MethodValues {
		if i == n {
			break
		}
		rows = append(rows, []string{string(row.Method), USD(row.MakersUSD), USD(row.TakersUSD), USD(row.TotalUSD())})
	}
	b.WriteString(Table(headers, rows))
	fmt.Fprintf(&b, "\nTotal public value: %s (avg %s, max %s) over %d valued contracts\n",
		USD(r.TotalUSD), USD(r.MeanUSD), USD(r.MaxUSD), len(r.PerContract))
	for _, typ := range forum.ContractTypes {
		ts, ok := r.ByType[typ]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %s (avg %s, max %s)\n", typ, USD(ts.TotalUSD), USD(ts.MeanUSD), USD(ts.MaxUSD))
	}
	fmt.Fprintf(&b, "High-value audit (> $1,000): %d checked, %d confirmed, %d revised, %d unclear\n",
		r.Audit.HighValue, r.Audit.Confirmed, r.Audit.Revised, r.Audit.Unclear)
	if r.Audit.Unverifiable > 0 {
		fmt.Fprintf(&b, "  %d unverifiable: dataset carries no ledger (loaded from CSV?), so the §4.5 audit could not run\n",
			r.Audit.Unverifiable)
	}
	fmt.Fprintf(&b, "Extrapolated public+private lower bound: %s\n", USD(r.ExtrapolatedUSD))
	fmt.Fprintf(&b, "Top 10%% of users hold %s of value; mean per user %s\n",
		Pct(r.TopDecileShare), USD(r.MeanPerUserUSD))
	return b.String()
}

// MonthHeader lists the study months for series output.
func MonthHeader() string {
	var b strings.Builder
	b.WriteString(strings.Repeat(" ", 26))
	for m := dataset.Month(0); m < dataset.NumMonths; m++ {
		fmt.Fprintf(&b, " %6s", m.String()[2:]) // "18-06"
	}
	b.WriteByte('\n')
	return b.String()
}

// Growth renders Figure 1's four series.
func Growth(g analysis.MonthlyGrowth) string {
	var b strings.Builder
	b.WriteString("Figure 1: Monthly growth of new members and contracts\n")
	b.WriteString(MonthHeader())
	b.WriteString(IntSeries("contracts created", g.Created[:]))
	b.WriteString(IntSeries("contracts completed", g.Completed[:]))
	b.WriteString(IntSeries("new members (created)", g.NewCreators[:]))
	b.WriteString(IntSeries("new members (completed)", g.NewFinishers[:]))
	fmt.Fprintf(&b, "shape: created %s\n", Sparkline(intsToFloats(g.Created[:])))
	return b.String()
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// PublicTrend renders Figure 2.
func PublicTrend(tr analysis.VisibilityTrend) string {
	var b strings.Builder
	b.WriteString("Figure 2: Proportion of public contracts by month\n")
	b.WriteString(MonthHeader())
	b.WriteString(Series("created public", scale100(tr.CreatedPublic[:]), "%5.1f%%"))
	b.WriteString(Series("completed public", scale100(tr.CompletedPublic[:]), "%5.1f%%"))
	return b.String()
}

// TypeShares renders Figure 3 (created side).
func TypeShares(tr analysis.TypeShares) string {
	var b strings.Builder
	b.WriteString("Figure 3: Contract type proportions by month (created)\n")
	b.WriteString(MonthHeader())
	for _, typ := range forum.ContractTypes {
		series := make([]float64, dataset.NumMonths)
		for m := 0; m < dataset.NumMonths; m++ {
			series[m] = 100 * tr.Created[m][typ]
		}
		b.WriteString(Series(typ.String(), series, "%5.1f%%"))
	}
	return b.String()
}

// CompletionTimes renders Figure 4.
func CompletionTimes(tr analysis.CompletionTimes) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Mean completion time by type (hours); completion date coverage %s\n", Pct(tr.CoveredShare))
	b.WriteString(MonthHeader())
	for _, typ := range forum.ContractTypes {
		series := make([]float64, dataset.NumMonths)
		for m := 0; m < dataset.NumMonths; m++ {
			series[m] = tr.MeanHours[m][typ]
		}
		b.WriteString(Series(typ.String(), series, "%6.1f"))
	}
	return b.String()
}

// Concentration renders Figure 5's headline points.
func Concentration(c analysis.Concentration) string {
	var b strings.Builder
	b.WriteString("Figure 5: Market concentration\n")
	for _, q := range []float64{0.01, 0.05, 0.10, 0.30} {
		fmt.Fprintf(&b, "  top %4.0f%% users  → %s of created, %s of completed contracts\n",
			100*q, Pct(c.UsersCreated.ShareAtTop(q)), Pct(c.UsersCompleted.ShareAtTop(q)))
	}
	for _, q := range []float64{0.05, 0.30} {
		fmt.Fprintf(&b, "  top %4.0f%% threads → %s of created, %s of completed linked contracts\n",
			100*q, Pct(c.ThreadsCreated.ShareAtTop(q)), Pct(c.ThreadsCompleted.ShareAtTop(q)))
	}
	return b.String()
}

// KeyShares renders Figure 6.
func KeyShares(k analysis.KeyShare) string {
	var b strings.Builder
	b.WriteString("Figure 6: Monthly share of contracts by key (top-5%) members and threads\n")
	b.WriteString(MonthHeader())
	b.WriteString(Series("key members (created)", scale100(k.MemberCreated[:]), "%5.1f%%"))
	b.WriteString(Series("key members (completed)", scale100(k.MemberCompleted[:]), "%5.1f%%"))
	b.WriteString(Series("key threads (created)", scale100(k.ThreadCreated[:]), "%5.1f%%"))
	b.WriteString(Series("key threads (completed)", scale100(k.ThreadCompleted[:]), "%5.1f%%"))
	return b.String()
}

func scale100(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 100 * x
	}
	return out
}

// DegreeDist renders Figure 7's key statistics.
func DegreeDist(label string, d analysis.DegreeDistribution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 (%s): degree distributions over %d nodes\n", label, d.Nodes)
	for _, k := range []graph.DegreeKind{graph.Raw, graph.Inbound, graph.Outbound} {
		line := fmt.Sprintf("  %-9s max=%-6d", k, d.Max[k])
		if fit := d.PowerLaw[k]; fit != nil {
			line += fmt.Sprintf(" power-law alpha=%.2f (xmin=%d, KS=%.3f, tail n=%d)",
				fit.Alpha, fit.XMin, fit.KS, fit.NTail)
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// DegreeGrowth renders Figure 8.
func DegreeGrowth(g analysis.DegreeGrowth) string {
	var b strings.Builder
	b.WriteString("Figure 8: Growth of network degrees over time (created contracts)\n")
	b.WriteString(MonthHeader())
	b.WriteString(IntSeries("max raw", g.MaxRaw[:]))
	b.WriteString(IntSeries("max inbound", g.MaxInbound[:]))
	b.WriteString(IntSeries("max outbound", g.MaxOutbound[:]))
	b.WriteString(Series("mean raw", g.MeanRaw[:], "%6.2f"))
	return b.String()
}

// ZIPModels renders Tables 9/10-style output for the fitted era models.
// A fit that stopped at its iteration cap says so on its header line. A
// zero-part coefficient that the data do not identify prints as such,
// with no standard error, z value or stars, and a zero part with no
// identified coefficient prints as one line.
func ZIPModels(title string, results []analysis.ZIPEraResult) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, r := range results {
		m := r.Model
		fmt.Fprintf(&b, "\n%s (%s): n=%d, %%zero=%.1f, McFadden R²=%.3f, Vuong=%.2f (p=%.4f)",
			r.Era, r.Subset, m.N, m.PctZero, m.McFadden, m.Vuong, m.VuongP)
		if !m.Converged {
			b.WriteString(" [not converged]")
		}
		b.WriteString("\n  Count model:\n")
		writeCoefs(&b, m.Count)
		if !m.Zero.AnyIdentified() {
			b.WriteString("  Zero-inflation model: zero part not identified\n")
			continue
		}
		b.WriteString("  Zero-inflation model:\n")
		writeCoefs(&b, m.Zero)
	}
	return b.String()
}

func writeCoefs(b *strings.Builder, c *stats.CoefBlock) {
	for j, name := range c.Names {
		if !c.Identified[j] {
			fmt.Fprintf(b, "    %-28s not identified\n", name)
			continue
		}
		fmt.Fprintf(b, "    %-28s %9.3f  (se %7.3f)  z=%8.2f %s\n",
			name, c.Coef[j], c.StdErr[j], c.ZValues[j], c.Stars(j))
	}
}

// LatentClasses renders Table 6 from a fitted LTM.
func LatentClasses(ltm *analysis.LTMResult) string {
	var b strings.Builder
	b.WriteString("Table 6: Average monthly transactions per latent class (fitted)\n")
	headers := []string{"Class", "Weight",
		"mk SALE", "mk PURCH", "mk EXCH", "mk TRADE", "mk VOUCH",
		"tk SALE", "tk PURCH", "tk EXCH", "tk TRADE", "tk VOUCH"}
	var rows [][]string
	for c := 0; c < ltm.Fit.K; c++ {
		row := []string{fmt.Sprintf("%c", 'A'+c), fmt.Sprintf("%.3f", ltm.Fit.Weights[c])}
		for d := 0; d < 10; d++ {
			row = append(row, fmt.Sprintf("%.1f", ltm.Fit.Rates[c][d]))
		}
		rows = append(rows, row)
	}
	b.WriteString(Table(headers, rows))
	fmt.Fprintf(&b, "log-likelihood %.0f, AIC %.0f, BIC %.0f over %d user-months\n",
		ltm.Fit.LogLik, ltm.Fit.AIC, ltm.Fit.BIC, ltm.Fit.N)
	return b.String()
}

// ClassActivity renders Figure 12 (made=true) or Figure 13 (made=false):
// monthly transactions per fitted class for EXCHANGE, PURCHASE, and SALE.
func ClassActivity(ltm *analysis.LTMResult, made bool) string {
	var b strings.Builder
	fig, side := "Figure 12", "made"
	series := ltm.MadeSeries
	if !made {
		fig, side = "Figure 13", "accepted"
		series = ltm.AcceptedSeries
	}
	fmt.Fprintf(&b, "%s: transactions %s by each latent class over time\n", fig, side)
	for _, typ := range []forum.ContractType{forum.Exchange, forum.Purchase, forum.Sale} {
		fmt.Fprintf(&b, "%s:\n", typ)
		b.WriteString(MonthHeader())
		for c := 0; c < ltm.Fit.K; c++ {
			row := make([]int, dataset.NumMonths)
			total := 0
			for m := 0; m < dataset.NumMonths; m++ {
				row[m] = series[c][m][typ]
				total += row[m]
			}
			if total == 0 {
				continue
			}
			b.WriteString(IntSeries(fmt.Sprintf("class %c", 'A'+c), row))
		}
	}
	return b.String()
}

// Flows renders Table 8.
func Flows(f analysis.FlowsResult, ltm *analysis.LTMResult) string {
	var b strings.Builder
	b.WriteString("Table 8: Top 3 transaction flows per type per era (fitted classes)\n")
	for _, typ := range []forum.ContractType{forum.Exchange, forum.Purchase, forum.Sale} {
		fmt.Fprintf(&b, "%s:\n", typ)
		for _, e := range dataset.Eras {
			for i, cell := range f.Top(e, typ, 3) {
				fmt.Fprintf(&b, "  %-8s #%d  %c → %c  avg %.1f txns/month (%s of type)\n",
					e, i+1, 'A'+cell.MakerClass, 'A'+cell.TakerClass, cell.AvgPerMonth, Pct(cell.Share))
			}
		}
	}
	return b.String()
}

// ColdStart renders Table 7 and the §5.2 headline statistics.
func ColdStart(r *analysis.ColdStartResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cold start (§5.2): %d STABLE cold starters; main cluster %s, %d outliers\n",
		r.N, Pct(r.MainClusterShare), r.OutlierCount)
	headers := []string{"Cluster", "Size", "Disputes", "Posts", "+", "-", "MPosts", "Maker", "Taker"}
	var rows [][]string
	for i, c := range r.OutlierClusters {
		rows = append(rows, []string{
			fmt.Sprintf("%c", 'A'+i), Count(c.Size),
			fmt.Sprintf("%.1f", c.Disputes), fmt.Sprintf("%.1f", c.Posts),
			fmt.Sprintf("%.1f", c.Positive), fmt.Sprintf("%.1f", c.Negative),
			fmt.Sprintf("%.1f", c.MPosts), fmt.Sprintf("%.1f", c.Maker), fmt.Sprintf("%.1f", c.Taker),
		})
	}
	b.WriteString("Table 7: outlier clusters (medians)\n")
	b.WriteString(Table(headers, rows))
	fmt.Fprintf(&b, "median lifespan: all %.1f days, outliers %.1f days\n",
		r.MedianLifespanAllDays, r.MedianLifespanOutlierDays)
	fmt.Fprintf(&b, "continue into COVID-19: all %s, outliers %s\n",
		Pct(r.ContinueIntoCovidAll), Pct(r.ContinueIntoCovidOutliers))
	fmt.Fprintf(&b, "median reputation: STABLE starters %.0f, outliers %.0f, SET-UP starters %.0f\n",
		r.MedianReputationAll, r.MedianReputationOutliers, r.MedianReputationSetup)
	return b.String()
}

// ProductTrend renders Figure 9.
func ProductTrend(tr analysis.ProductTrend) string {
	var b strings.Builder
	b.WriteString("Figure 9: Evolution of the top five products (completed public contracts)\n")
	b.WriteString(MonthHeader())
	for _, cat := range tr.Categories {
		counts := tr.Counts[cat]
		b.WriteString(IntSeries(string(cat), counts[:]))
	}
	return b.String()
}

// PaymentTrend renders Figure 10.
func PaymentTrend(tr analysis.PaymentTrend) string {
	var b strings.Builder
	b.WriteString("Figure 10: Evolution of the top five payment methods (completed public contracts)\n")
	b.WriteString(MonthHeader())
	for _, m := range tr.Methods {
		counts := tr.Counts[m]
		b.WriteString(IntSeries(string(m), counts[:]))
	}
	return b.String()
}

// ValueTrend renders Figure 11: monthly USD value by contract type, top
// payment methods, and top products.
func ValueTrend(tr analysis.ValueTrend) string {
	var b strings.Builder
	b.WriteString("Figure 11: Monthly value by contract type, payment method, and product\n")
	b.WriteString(MonthHeader())
	for _, typ := range forum.ContractTypes {
		series, ok := tr.ByType[typ]
		if !ok {
			continue
		}
		b.WriteString(Series(typ.String(), series[:], "%6.0f"))
	}
	for _, m := range tr.Methods {
		series := tr.ByMethod[m]
		b.WriteString(Series(string(m), series[:], "%6.0f"))
	}
	for _, cat := range tr.Categories {
		series := tr.ByCategory[cat]
		b.WriteString(Series(string(cat), series[:], "%6.0f"))
	}
	return b.String()
}

// Participation renders the §4.3 repeat-transaction statistics.
func Participation(p analysis.ParticipationStats) string {
	var b strings.Builder
	b.WriteString("§4.3: repeat transactions per user\n")
	render := func(name string, s analysis.SideParticipation) {
		fmt.Fprintf(&b, "  %-6s %s users: %s make one, %s two, %s over 20; top counts %v\n",
			name, Count(s.Users), Pct(s.ShareOne), Pct(s.ShareTwo), Pct(s.ShareOver20), s.Top)
	}
	render("makers", p.Makers)
	render("takers", p.Takers)
	return b.String()
}

// Disputes renders the §5.1 dispute-share trend.
func Disputes(tr analysis.DisputeTrend) string {
	var b strings.Builder
	b.WriteString("§5.1: monthly disputed share of created contracts\n")
	b.WriteString(MonthHeader())
	b.WriteString(Series("disputed", scale100(tr.Share[:]), "%5.2f%%"))
	fmt.Fprintf(&b, "late SET-UP mean %s vs STABLE mean %s\n",
		Pct(tr.LateSetupMean()), Pct(tr.EraMean(dataset.EraStable)))
	return b.String()
}

// Centralisation renders the monthly participation Gini.
func Centralisation(c analysis.Centralisation) string {
	var b strings.Builder
	b.WriteString("§4.2: monthly participation Gini (centralisation)\n")
	b.WriteString(MonthHeader())
	b.WriteString(Series("gini", c.Gini[:], "%6.3f"))
	return b.String()
}

// Cohorts renders mean retention by months-since-join.
func Cohorts(r analysis.CohortRetention) string {
	var b strings.Builder
	b.WriteString("Cohort retention: fraction of a join cohort still active k months later\n")
	for _, k := range []int{0, 1, 2, 3, 6, 12} {
		fmt.Fprintf(&b, "  +%2d months: %s\n", k, Pct(r.MeanRetentionAt(k)))
	}
	return b.String()
}

// Corpus renders the §3 dataset description.
func Corpus(s analysis.CorpusStats) string {
	var b strings.Builder
	b.WriteString("§3: corpus description\n")
	fmt.Fprintf(&b, "  %s contracts, %s threads, %s posts by %s members\n",
		Count(s.Contracts), Count(s.Threads), Count(s.Posts), Count(s.PostingMembers))
	fmt.Fprintf(&b, "  thread linkage: %s of public contracts, %s overall\n",
		Pct(s.PublicWithThread), Pct(s.OverallWithThread))
	return b.String()
}

// Stimulus renders the COVID stimulus-vs-transformation test.
func Stimulus(s analysis.StimulusResult) string {
	var b strings.Builder
	b.WriteString("§6: COVID-19 stimulus vs transformation\n")
	fmt.Fprintf(&b, "  monthly volume ratio (COVID / late STABLE): %.2f×\n", s.VolumeRatio)
	fmt.Fprintf(&b, "  type-mix chi-square = %.1f (df %d, p = %.4f), Cramér's V = %.3f\n",
		s.ChiSquare, s.DF, s.PValue, s.CramersV)
	verdict := "STIMULUS: composition essentially unchanged"
	if s.CramersV >= 0.15 {
		verdict = "TRANSFORMATION: composition shifted materially"
	}
	b.WriteString("  verdict: " + verdict + "\n")
	return b.String()
}
