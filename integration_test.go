package pmsynth

// Whole-flow integration tests: every benchmark, across budgets, orders
// and backends, checked end to end — schedule legality, binding soundness,
// controller/guard consistency, output equivalence, and (sampled) the
// gate-level chips against the reference interpreter.

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
)

func randomInputsFor(g *cdfg.Graph, r *rand.Rand) map[string]int64 {
	in := make(map[string]int64, len(g.Inputs()))
	for _, id := range g.Inputs() {
		in[g.Node(id).Name] = r.Int63n(256)
	}
	return in
}

// TestIntegrationAllBenchmarksAllBudgets runs the complete library flow on
// every benchmark and budget, validating every artifact.
func TestIntegrationAllBenchmarksAllBudgets(t *testing.T) {
	for _, c := range bench.All() {
		budgets := c.Budgets
		if c.Name == "cordic" && testing.Short() {
			budgets = budgets[:1]
		}
		for _, budget := range budgets {
			syn, err := Synthesize(c.Design, Options{Budget: budget})
			if err != nil {
				t.Fatalf("%s@%d: %v", c.Name, budget, err)
			}
			if err := syn.PM.Schedule.Validate(nil); err != nil {
				t.Errorf("%s@%d schedule: %v", c.Name, budget, err)
			}
			// Binding covers all ops with consistent units.
			for _, n := range syn.PM.Graph.Nodes() {
				if n.IsOp() {
					if _, ok := syn.Binding.Lookup(n.ID); !ok {
						t.Errorf("%s@%d: op %s unbound", c.Name, budget, n.Name)
					}
				}
			}
			// Guards reference only boolean-valued or input selects.
			for id, gl := range syn.PM.Guards {
				if !syn.PM.Graph.Node(id).IsOp() {
					t.Errorf("%s@%d: guard on non-op %d", c.Name, budget, id)
				}
				for _, gd := range gl {
					sel := syn.PM.Graph.Node(gd.Sel)
					if !sel.Kind.IsBoolean() && sel.Kind != cdfg.KindInput && sel.Kind != cdfg.KindMux {
						t.Errorf("%s@%d: guard select %s is %v", c.Name, budget, sel.Name, sel.Kind)
					}
				}
			}
			// Functional equivalence.
			r := rand.New(rand.NewSource(int64(budget)))
			for i := 0; i < 15; i++ {
				in := randomInputsFor(c.Graph(), r)
				want, err := sim.Evaluate(c.Graph(), in, sim.Options{Width: 8})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.ExecuteScheduled(syn.PM.Schedule, syn.PM.Guards, in, sim.Options{Width: 8})
				if err != nil {
					t.Fatalf("%s@%d: %v", c.Name, budget, err)
				}
				for k, v := range want {
					if got.Outputs[k] != v {
						t.Errorf("%s@%d %s: %d != %d", c.Name, budget, k, got.Outputs[k], v)
					}
				}
			}
			// VHDL and Verilog emit without error and deterministically.
			v1, err := syn.VHDL()
			if err != nil {
				t.Fatalf("%s@%d vhdl: %v", c.Name, budget, err)
			}
			v2, _ := syn.VHDL()
			if v1 != v2 {
				t.Errorf("%s@%d: VHDL not deterministic", c.Name, budget)
			}
			if _, err := syn.Verilog(); err != nil {
				t.Fatalf("%s@%d verilog: %v", c.Name, budget, err)
			}
		}
	}
}

// TestIntegrationOrdersAgreeSemantically: every mux-order strategy yields
// a semantically correct result on every benchmark (first budget).
func TestIntegrationOrdersAgreeSemantically(t *testing.T) {
	orders := []Order{OrderOutputsFirst, OrderInputsFirst, OrderGreedyWeight}
	for _, c := range bench.All() {
		if c.Name == "cordic" && testing.Short() {
			continue
		}
		budget := c.Budgets[0]
		r := rand.New(rand.NewSource(7))
		vectors := make([]map[string]int64, 10)
		for i := range vectors {
			vectors[i] = randomInputsFor(c.Graph(), r)
		}
		for _, o := range orders {
			syn, err := Synthesize(c.Design, Options{Budget: budget, Order: o})
			if err != nil {
				t.Fatalf("%s %v: %v", c.Name, o, err)
			}
			for _, in := range vectors {
				want, err := sim.Evaluate(c.Graph(), in, sim.Options{Width: 8})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.ExecuteScheduled(syn.PM.Schedule, syn.PM.Guards, in, sim.Options{Width: 8})
				if err != nil {
					t.Fatalf("%s %v: %v", c.Name, o, err)
				}
				for k, v := range want {
					if got.Outputs[k] != v {
						t.Errorf("%s %v %s: %d != %d", c.Name, o, k, got.Outputs[k], v)
					}
				}
			}
		}
	}
}

// TestIntegrationExpectedOpsTotalInvariant: for any PM result, the
// expected executions of a class never exceed the op count, and equal it
// exactly when nothing of that class is gated.
func TestIntegrationExpectedOpsTotalInvariant(t *testing.T) {
	for _, c := range bench.All() {
		if c.Name == "cordic" && testing.Short() {
			continue
		}
		budget := c.Budgets[len(c.Budgets)-1]
		r, err := core.Schedule(c.Graph(), core.Config{Budget: budget, Weights: power.Weights})
		if err != nil {
			t.Fatal(err)
		}
		act, _ := power.AnalyzeExact(r.Graph, r.Guards)
		ops := act.ExpectedOps(r.Graph)
		st, _ := r.Graph.ComputeStats()
		classes := []cdfg.Class{cdfg.ClassMux, cdfg.ClassComp, cdfg.ClassAdd, cdfg.ClassSub, cdfg.ClassMul}
		gatedByClass := make(map[cdfg.Class]bool)
		for id := range r.Guards {
			gatedByClass[r.Graph.Node(id).Class()] = true
		}
		for _, cls := range classes {
			total := float64(st.Count[cls])
			if ops[cls] > total+1e-9 {
				t.Errorf("%s: E[%v] = %v exceeds count %v", c.Name, cls, ops[cls], total)
			}
			if !gatedByClass[cls] && ops[cls] < total-1e-9 {
				t.Errorf("%s: ungated class %v has E %v < %v", c.Name, cls, ops[cls], total)
			}
		}
	}
}
