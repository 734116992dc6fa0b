// COVID stimulus: reproduce the paper's headline finding that the pandemic
// was a *stimulus* of the market rather than a *transformation* — volumes
// spike in April 2020 while the composition of contract types, products,
// and payment methods stays essentially unchanged.
//
// Run with:
//
//	go run ./examples/covidstimulus
package main

import (
	"fmt"
	"log"
	"math"

	"turnup"
	"turnup/internal/analysis"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/report"
)

func main() {
	log.SetFlags(0)

	d, err := turnup.Generate(turnup.Config{Seed: 23, Scale: 0.1})
	if err != nil {
		log.Fatal(err)
	}

	ix := analysis.NewIndex(d)

	// --- Stimulus: the volume spike ---
	g := analysis.Growth(ix)
	fmt.Println("Monthly created contracts (COVID-19 window highlighted):")
	fmt.Print(report.MonthHeader())
	fmt.Print(report.IntSeries("created", g.Created[:]))
	fmt.Printf("shape: %s\n\n", report.Sparkline(toF(g.Created[:])))

	aprStable, aprCovid := g.Created[10], g.Created[22]
	fmt.Printf("April 2019 peak: %d; April 2020 peak: %d (%.0f%% higher)\n\n",
		aprStable, aprCovid, 100*(float64(aprCovid)/float64(aprStable)-1))

	// --- Not a transformation: shares barely move ---
	ts := analysis.TypeShareTrend(ix)
	fmt.Println("Contract type shares, late STABLE vs COVID-19 peak:")
	maxShift := 0.0
	for _, typ := range forum.ContractTypes {
		before := ts.Created[19][typ] // January 2020
		during := ts.Created[22][typ] // April 2020
		shift := math.Abs(during - before)
		if shift > maxShift {
			maxShift = shift
		}
		fmt.Printf("  %-11s %6.1f%% → %6.1f%%  (shift %+.1f pts)\n",
			typ, 100*before, 100*during, 100*(during-before))
	}
	verdict := "STIMULUS (composition stable)"
	if maxShift > 0.10 {
		verdict = "TRANSFORMATION (composition shifted)"
	}
	fmt.Printf("largest share shift: %.1f points → %s\n\n", 100*maxShift, verdict)

	// --- The same story for products and payment methods ---
	prod := analysis.ProductTrends(ix)
	fmt.Println("Top-5 product categories, monthly completed public contracts:")
	for _, cat := range prod.Categories {
		counts := prod.Counts[cat]
		fmt.Printf("  %-24s %s\n", cat, report.Sparkline(intToF(counts[:])))
	}
	fmt.Println()

	// --- Era summary ---
	for _, e := range dataset.Eras {
		cs := ix.InEra(e)
		perMonth := float64(len(cs)) / float64(len(e.Months()))
		fmt.Printf("%-9s %6d contracts over %2d months (%.0f/month)\n",
			e, len(cs), len(e.Months()), perMonth)
	}
}

func toF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func intToF(xs []int) []float64 { return toF(xs) }
