// venderpower reproduces one Table III row end to end: the vender design
// is synthesized twice — traditionally and with power management — both
// variants are compiled to gate-level netlists (datapath + FSM
// controller), and their switching activity is measured on the same random
// input stream. It also writes the power managed VHDL, the artifact the
// original flow handed to Synopsys, to vender_pm.vhd in the system's
// temporary directory, and prints that path.
//
// Run with: go run ./examples/venderpower
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/bench"
)

func main() {
	c := bench.Vender()
	fmt.Println("vender: vending-machine controller; the two multiplications sit on")
	fmt.Print("mutually exclusive branches of the paid-enough comparison\n\n")

	syn, err := pmsynth.Synthesize(c.Design, pmsynth.Options{Budget: 6})
	if err != nil {
		log.Fatal(err)
	}
	row := syn.Row()
	fmt.Printf("datapath model: %d PM muxes, E[multiplications] = %.2f of 2, reduction %.1f%%\n\n",
		row.PMMuxes, row.Mul, row.PowerReductionPct)

	rep, err := syn.GateLevelReport(150, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gate level (toggle-count estimator, same vectors for both variants):")
	fmt.Printf("  area   %8.0f -> %8.0f NAND2-eq (%.2fx)\n", rep.AreaOrig, rep.AreaNew, rep.AreaIncrease())
	fmt.Printf("  power  %8.1f -> %8.1f toggles/cycle (%.1f%% saved)\n",
		rep.PowerOrig, rep.PowerNew, rep.PowerReductionPct())
	fmt.Printf("  paper Table III: 106.2 -> 71.4 library units (32.8%% saved)\n\n")

	text, err := syn.VHDL()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "vender_pm.vhd")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote the power managed RTL to %s (%d bytes)\n", path, len(text))
}
