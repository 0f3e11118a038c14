// gcdreport sweeps the gcd benchmark across control-step budgets and
// prints a Table II style report: how the number of power managed
// multiplexors, the expected operation executions, and the datapath power
// reduction evolve as throughput constraints relax.
//
// Run with: go run ./examples/gcdreport
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/bench"
)

func main() {
	c := bench.GCD()
	fmt.Printf("gcd: one Euclid iteration (Table I: %s)\n", c.PaperStats)
	fmt.Println("source:")
	fmt.Println(c.Source)

	fmt.Println(pmsynth.RowHeader)
	for budget := c.PaperStats.CriticalPath; budget <= c.PaperStats.CriticalPath+3; budget++ {
		syn, err := pmsynth.Synthesize(c.Design, pmsynth.Options{Budget: budget})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(syn.Row())
		if err := syn.Verify(200, int64(budget)); err != nil {
			log.Fatalf("budget %d: %v", budget, err)
		}
	}

	// Show who shuts down what at the largest budget.
	syn, err := pmsynth.Synthesize(c.Design, pmsynth.Options{Budget: c.PaperStats.CriticalPath + 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nshut-down assignments:")
	g := syn.PM.Graph
	for _, mm := range syn.PM.Managed {
		fmt.Printf("  mux %-4s (select %-4s): %d gated ops\n",
			g.Node(mm.Mux).Name, g.Node(mm.Sel).Name, mm.GatedCount())
	}
	fmt.Println("\nall budgets verified against the reference interpreter")
}
