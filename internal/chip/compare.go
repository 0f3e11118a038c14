package chip

import (
	"fmt"
	"math/rand"

	"repro/internal/cdfg"
	"repro/internal/ctrl"
	"repro/internal/silage"
	"repro/internal/sim"
)

// Report is the Table III comparison between the traditional design
// ("Orig") and the power managed design ("New") of one circuit at one
// step budget.
type Report struct {
	Name  string
	Steps int
	// AreaOrig/AreaNew are NAND2-equivalent netlist areas.
	AreaOrig, AreaNew float64
	// PowerOrig/PowerNew are average fanout-weighted toggles per cycle.
	PowerOrig, PowerNew float64
	// Samples is the number of random vectors measured.
	Samples int
}

// AreaIncrease returns AreaNew / AreaOrig.
func (r Report) AreaIncrease() float64 {
	if r.AreaOrig == 0 {
		return 1
	}
	return r.AreaNew / r.AreaOrig
}

// PowerReductionPct returns the percentage power saving of New vs Orig.
func (r Report) PowerReductionPct() float64 {
	if r.PowerOrig == 0 {
		return 0
	}
	return 100 * (1 - r.PowerNew/r.PowerOrig)
}

// String formats the report as a Table III row.
func (r Report) String() string {
	return fmt.Sprintf("%-8s %2d  area %7.0f -> %7.0f (%.2fx)  power %8.1f -> %8.1f  (%.1f%%)",
		r.Name, r.Steps, r.AreaOrig, r.AreaNew, r.AreaIncrease(),
		r.PowerOrig, r.PowerNew, r.PowerReductionPct())
}

// RandomWord draws one uniform random input word for a datapath of the
// given width. Widths of 63 and 64 are legal in the frontend but cannot
// go through Int63n (1<<63 overflows int64); they draw the widest
// non-negative word instead, keeping values representable everywhere a
// signal rides an int64. Found by the differential harness's review of
// width edge cases.
func RandomWord(rnd *rand.Rand, width int) int64 {
	if width < 63 {
		return rnd.Int63n(int64(1) << uint(width))
	}
	return rnd.Int63() // uniform over [0, 2^63)
}

// RandomVectors draws the given number of uniform random input vectors for
// g at the given datapath width from rnd; a negative count draws none. The
// generator is injectable so gate-level power measurements are
// reproducible regardless of which sweep worker runs them.
func RandomVectors(g *cdfg.Graph, width, samples int, rnd *rand.Rand) []map[string]int64 {
	vectors := make([]map[string]int64, max(samples, 0))
	for i := range vectors {
		in := make(map[string]int64, len(g.Inputs()))
		for _, id := range g.Inputs() {
			in[g.Node(id).Name] = RandomWord(rnd, width)
		}
		vectors[i] = in
	}
	return vectors
}

// Compare builds the gate-level chips of one design's power managed (pm)
// and traditional (base) controllers and measures both on the same input
// stream, verifying every sample's outputs against the reference
// interpreter. It reproduces one Table III row; it runs no scheduling or
// binding, so callers that synthesized a design pass the controllers they
// already have.
//
// The measured savings depend directly on how often the gating conditions
// fire on the stream: skewed operating points (a condition that is almost
// always true) gate almost nothing, balanced ones realize the full
// equiprobable-model savings. This is the gate-level knob behind the
// Table III sensitivity analysis in EXPERIMENTS.md.
func Compare(pm, base *ctrl.Controller, width int, vectors []map[string]int64) (Report, error) {
	g := base.Graph
	rep := Report{Name: g.Name, Steps: pm.Steps, Samples: len(vectors)}
	if len(vectors) < 1 {
		return rep, fmt.Errorf("chip: need at least one sample")
	}

	pmChip, err := Build(pm, width)
	if err != nil {
		return rep, err
	}
	baseChip, err := Build(base, width)
	if err != nil {
		return rep, err
	}

	rep.AreaOrig = baseChip.Netlist.Area()
	rep.AreaNew = pmChip.Netlist.Area()

	pmSim, err := pmChip.NewTestbench()
	if err != nil {
		return rep, err
	}
	baseSim, err := baseChip.NewTestbench()
	if err != nil {
		return rep, err
	}

	// Warm up both chips (initialization transients), then reset stats.
	warm := vectors[0]
	if _, err := pmChip.RunSample(pmSim, warm); err != nil {
		return rep, err
	}
	if _, err := baseChip.RunSample(baseSim, warm); err != nil {
		return rep, err
	}
	pmSim.ResetStats()
	baseSim.ResetStats()

	// One compiled reference program serves the whole vector stream; its
	// reused output map is read before the next Eval call.
	ref, err := sim.Compile(g, sim.Options{Width: width})
	if err != nil {
		return rep, err
	}
	for i, in := range vectors {
		want, err := ref.Eval(in)
		if err != nil {
			return rep, err
		}
		gotPM, err := pmChip.RunSample(pmSim, in)
		if err != nil {
			return rep, err
		}
		gotBase, err := baseChip.RunSample(baseSim, in)
		if err != nil {
			return rep, err
		}
		for _, id := range g.Outputs() {
			port := silage.PortName(g.Node(id).Name)
			if gotPM[port] != want[g.Node(id).Name] {
				return rep, fmt.Errorf("chip: PM output %s = %d, reference %d (sample %d, inputs %v)",
					port, gotPM[port], want[g.Node(id).Name], i, in)
			}
			if gotBase[port] != want[g.Node(id).Name] {
				return rep, fmt.Errorf("chip: baseline output %s = %d, reference %d (sample %d, inputs %v)",
					port, gotBase[port], want[g.Node(id).Name], i, in)
			}
		}
	}
	rep.PowerOrig = baseSim.AveragePower()
	rep.PowerNew = pmSim.AveragePower()
	return rep, nil
}
