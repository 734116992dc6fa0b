// Network evolution: reproduce §4.2's social-network analysis — the
// power-law degree distributions of the contractual graph (Figure 7) and
// the growth of maximum/mean degrees across the three eras (Figure 8).
//
// Run with:
//
//	go run ./examples/networkevolution
package main

import (
	"fmt"
	"log"
	"sort"

	"turnup"
	"turnup/internal/analysis"
	"turnup/internal/graph"
	"turnup/internal/report"
)

func main() {
	log.SetFlags(0)

	d, err := turnup.Generate(turnup.Config{Seed: 17, Scale: 0.1})
	if err != nil {
		log.Fatal(err)
	}

	ix := analysis.NewIndex(d)
	created := analysis.DegreeDist(d.Contracts)
	completed := analysis.DegreeDist(ix.Completed())
	fmt.Print(report.DegreeDist("created", created))
	fmt.Print(report.DegreeDist("completed", completed))

	// Show the head of the raw degree histogram: the paper's Figure 7
	// plots degrees 0-15, where most of the mass sits.
	fmt.Println("\nraw degree histogram (created contracts, degrees 1-15):")
	degrees := make([]int, 0, len(created.Histogram[graph.Raw]))
	for deg := range created.Histogram[graph.Raw] {
		degrees = append(degrees, deg)
	}
	sort.Ints(degrees)
	var series []float64
	for deg := 1; deg <= 15; deg++ {
		n := created.Histogram[graph.Raw][deg]
		fmt.Printf("  degree %2d: %6d nodes\n", deg, n)
		series = append(series, float64(n))
	}
	fmt.Printf("  shape: %s (power-law decay)\n\n", report.Sparkline(series))

	// Figure 8: the cumulative network's degree growth. Max raw and max
	// inbound track each other; outbound stays far lower — hubs are formed
	// by accepting contracts, not initiating them.
	growth := analysis.DegreeGrowthTrend(ix, false)
	fmt.Print(report.DegreeGrowth(growth))
}
