package chip

import (
	"fmt"
	"math/rand"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/flow"
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
// g at the given datapath width from rnd. The generator is injectable so
// gate-level power measurements are reproducible regardless of which sweep
// worker runs them.
func RandomVectors(g *cdfg.Graph, width, samples int, rnd *rand.Rand) []map[string]int64 {
	vectors := make([]map[string]int64, samples)
	for i := range vectors {
		in := make(map[string]int64, len(g.Inputs()))
		for _, id := range g.Inputs() {
			in[g.Node(id).Name] = RandomWord(rnd, width)
		}
		vectors[i] = in
	}
	return vectors
}

// Compare builds the traditional and power managed gate-level designs of
// graph g at the given budget and measures both on the same random input
// stream, verifying every sample's outputs against the reference
// interpreter. It reproduces one Table III row.
func Compare(g *cdfg.Graph, budget, width, samples int, seed int64) (Report, error) {
	rnd := rand.New(rand.NewSource(seed))
	return CompareWithVectors(g, budget, width, RandomVectors(g, width, samples, rnd))
}

// CompareWithVectors is Compare with a caller-supplied input stream. The
// measured savings depend directly on how often the gating conditions fire
// on the stream — skewed operating points (a condition that is almost
// always true) gate almost nothing, balanced ones realize the full
// equiprobable-model savings. This is the gate-level knob behind the
// Table III sensitivity analysis in EXPERIMENTS.md.
func CompareWithVectors(g *cdfg.Graph, budget, width int, vectors []map[string]int64) (Report, error) {
	if len(vectors) < 1 {
		return Report{Name: g.Name, Steps: budget}, fmt.Errorf("chip: need at least one sample")
	}
	fc := &flow.Context{Graph: g, Width: width, Config: core.Config{Budget: budget}}
	// The standard pipeline minus the activity pass: the gate-level
	// comparison measures switching directly and never reads the
	// probabilistic activity model.
	pipe := flow.New(flow.SchedulePass{}, flow.BindPass{}, flow.BaselinePass{})
	if err := pipe.Run(fc); err != nil {
		return Report{Name: g.Name, Steps: budget, Samples: len(vectors)}, err
	}
	return CompareContext(fc, vectors)
}

// CompareContext measures the gate-level chips of an already-run pipeline
// context on the given input stream. Both controllers (power managed and
// baseline) come from the context's Controllers, so callers that already
// synthesized a design — the sweep engine, the root Synthesis — do not
// re-run any scheduling or binding.
func CompareContext(fc *flow.Context, vectors []map[string]int64) (Report, error) {
	if fc == nil || fc.PM == nil {
		return Report{Samples: len(vectors)}, fmt.Errorf("chip: context is missing pipeline artifacts")
	}
	g := fc.Graph
	rep := Report{Name: g.Name, Samples: len(vectors)}
	rep.Steps = fc.PM.Schedule.Steps
	if len(vectors) < 1 {
		return rep, fmt.Errorf("chip: need at least one sample")
	}
	pmCtl, baseCtl, err := fc.Controllers()
	if err != nil {
		return rep, err
	}

	pmChip, err := Build(pmCtl, fc.Width)
	if err != nil {
		return rep, err
	}
	baseChip, err := Build(baseCtl, fc.Width)
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
	// reused output map is read before the next EvalReuse call.
	ref, err := sim.Compile(g, sim.Options{Width: fc.Width})
	if err != nil {
		return rep, err
	}
	for i, in := range vectors {
		want, err := ref.EvalReuse(in)
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
			port := portOf(g, id)
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

func portOf(g *cdfg.Graph, id cdfg.NodeID) string {
	name := g.Node(id).Name
	const prefix = "out:"
	if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
		return name[len(prefix):]
	}
	return name
}
