// Cold start: reproduce §5.2 — how new users overcome the cold start
// problem. Clusters STABLE-era cold starters (Table 7), then fits the
// Table 9 zero-inflated Poisson models to show how trust signals predict
// completed contracts.
//
// Run with:
//
//	go run ./examples/coldstart
package main

import (
	"fmt"
	"log"

	"turnup"
	"turnup/internal/analysis"
	"turnup/internal/report"
	"turnup/internal/rng"
)

func main() {
	log.SetFlags(0)

	d, err := turnup.Generate(turnup.Config{Seed: 7, Scale: 0.1})
	if err != nil {
		log.Fatal(err)
	}

	ix := analysis.NewIndex(d)

	// Two-stage k-means over the cold start variables.
	cs, err := analysis.ColdStart(ix, rng.New(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.ColdStart(cs))
	fmt.Println()

	// Zero-inflated Poisson: how activity and trust signals predict
	// completed contracts in each era.
	zips, err := analysis.ZIPAllUsers(ix)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.ZIPModels("Table 9: Zero-Inflated Poisson regressions (all users)", zips))

	// The paper's headline: the Vuong test prefers ZIP over plain Poisson,
	// i.e. some users are structural non-completers.
	fmt.Println()
	for _, z := range zips {
		verdict := "ZIP preferred"
		if z.Model.Vuong <= 0 {
			verdict = "inconclusive"
		}
		fmt.Printf("%-9s Vuong z = %+.2f → %s\n", z.Era, z.Model.Vuong, verdict)
	}
}
