package power_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pmsynth "repro"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sim"
)

// sameActivity fails t unless a and b agree bit for bit, in exactness and
// in every node's probability.
func sameActivity(t *testing.T, what string, a power.Activity, aOK bool, b power.Activity, bOK bool) {
	t.Helper()
	if aOK != bOK || len(a.Prob) != len(b.Prob) {
		t.Fatalf("%s: exact %v over %d nodes vs exact %v over %d nodes", what, aOK, len(a.Prob), bOK, len(b.Prob))
	}
	for id := range a.Prob {
		if a.Prob[id] != b.Prob[id] {
			t.Fatalf("%s: node %d probability %v vs %v", what, id, a.Prob[id], b.Prob[id])
		}
	}
}

// TestAnalyzeExactIgnoresGraphOrder evaluates each design's gating on
// the graph it was compiled to and on the power-managed graph, which
// adds the control edges that put each select before the cone it gates.
// The walk takes its order from the guards, so the two must agree bit for
// bit. On the input graph a select need not precede what it gates
// (testdata/regress/optimal-activity-topo.sil), which an order read from
// the graph got wrong.
func TestAnalyzeExactIgnoresGraphOrder(t *testing.T) {
	type source struct{ name, src string }
	var sources []source
	for _, c := range append(append(bench.All(), bench.AbsDiff()), bench.Extras()...) {
		sources = append(sources, source{c.Name, c.Source})
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "regress", "*.sil"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no regression fixtures: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{filepath.Base(path), string(data)})
	}
	small := gen.Default()
	small.Ops = 20
	for seed := int64(0); seed < 60; seed++ {
		sources = append(sources, source{fmt.Sprintf("gen %d", seed), gen.Source(seed, gen.Default())})
		sources = append(sources, source{fmt.Sprintf("gen20 %d", seed), gen.Source(seed, small)})
	}
	gated := 0
	for _, s := range sources {
		design, err := pmsynth.Compile(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		cp, err := design.Graph.CriticalPath()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		cp = max(cp, 1)
		for _, opt := range []pmsynth.Options{{Budget: cp + 1}, {Budget: cp + 3}, {Budget: 2 * cp, II: cp}} {
			syn, err := pmsynth.Synthesize(design, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", s.name, opt, err)
			}
			if len(syn.PM.Guards) == 0 {
				continue
			}
			gated++
			onInput, inOK := power.AnalyzeExact(design.Graph, syn.PM.Guards)
			onPM, pmOK := power.AnalyzeExact(syn.PM.Graph, syn.PM.Guards)
			sameActivity(t, fmt.Sprintf("%s %+v: input graph vs PM graph", s.name, opt), onInput, inOK, onPM, pmOK)
		}
	}
	if gated < len(sources) {
		t.Fatalf("only %d gated points over %d sources", gated, len(sources))
	}
}

// TestAnalyzeExactGuardCycle: selects that guard one another have no
// order to be evaluated in, so the walk reports the all-on activity as
// approximate, as it did for a cyclic graph.
func TestAnalyzeExactGuardCycle(t *testing.T) {
	g := cdfg.New("cycle")
	a := cdfg.MustAdd(g.AddInput("a"))
	b := cdfg.MustAdd(g.AddInput("b"))
	c1 := cdfg.MustAdd(g.AddOp(cdfg.KindGt, "c1", a, b))
	c2 := cdfg.MustAdd(g.AddOp(cdfg.KindLt, "c2", a, b))
	t1 := cdfg.MustAdd(g.AddOp(cdfg.KindAdd, "t1", a, b))
	cdfg.MustAdd(g.AddOutput("o", t1))
	guards := sim.Guards{
		t1: {{Sel: c1, WhenTrue: true}},
		c1: {{Sel: c2, WhenTrue: true}},
		c2: {{Sel: c1, WhenTrue: false}},
	}
	for name, analyze := range map[string]func(*cdfg.Graph, sim.Guards) (power.Activity, bool){
		"word-parallel": power.AnalyzeExact, "scalar": power.AnalyzeExactReference,
	} {
		act, exact := analyze(g, guards)
		sameActivity(t, name, act, exact, power.Ungated(g), false)
	}
}

// groupedGuards builds a graph whose guard map has three independent
// groups: a nested chain of eight selects (four 64-outcome blocks), two
// selects shared by three operations, and one select gating both
// polarities. want holds the expected probability of each guarded node.
func groupedGuards() (g *cdfg.Graph, guards sim.Guards, want map[cdfg.NodeID]float64) {
	g = cdfg.New("groups")
	a := cdfg.MustAdd(g.AddInput("a"))
	b := cdfg.MustAdd(g.AddInput("b"))
	guards, want = make(sim.Guards), make(map[cdfg.NodeID]float64)
	n := 0
	op := func(kind cdfg.Kind) cdfg.NodeID {
		n++
		return cdfg.MustAdd(g.AddOp(kind, fmt.Sprintf("n%d", n), a, b))
	}
	// Chain: select i executes when select i-1 executes and is true.
	prev := op(cdfg.KindGt)
	for i := 1; i < 8; i++ {
		sel := op(cdfg.KindGt)
		guards[sel] = []sim.Guard{{Sel: prev, WhenTrue: true}}
		want[sel] = 1 / float64(int(1)<<i)
		prev = sel
	}
	inner := op(cdfg.KindMul)
	guards[inner] = []sim.Guard{{Sel: prev, WhenTrue: false}}
	want[inner] = 1.0 / 256
	// Two shared selects.
	s1, s2 := op(cdfg.KindLt), op(cdfg.KindEq)
	for i, gl := range [][]sim.Guard{
		{{Sel: s1, WhenTrue: true}},
		{{Sel: s1, WhenTrue: true}, {Sel: s2, WhenTrue: false}},
		{{Sel: s2, WhenTrue: true}},
	} {
		x := op(cdfg.KindAdd)
		guards[x] = gl
		want[x] = []float64{0.5, 0.25, 0.5}[i]
	}
	// One select, both polarities.
	s3 := op(cdfg.KindNe)
	for _, pol := range []bool{true, false} {
		x := op(cdfg.KindSub)
		guards[x] = []sim.Guard{{Sel: s3, WhenTrue: pol}}
		want[x] = 0.5
	}
	cdfg.MustAdd(g.AddOutput("o", inner))
	return g, guards, want
}

// TestAnalyzeExactGroups checks a guard map of one multi-block group
// beside two sub-word groups against the scalar walk over all 2^11
// outcomes, bit for bit, and against the probabilities worked by hand.
func TestAnalyzeExactGroups(t *testing.T) {
	g, guards, want := groupedGuards()
	if k := len(power.DistinctSelects(guards)); k != 11 {
		t.Fatalf("fixture has %d selects, want 11", k)
	}
	act, exact := power.AnalyzeExact(g, guards)
	ref, refExact := power.AnalyzeExactReference(g, guards)
	sameActivity(t, "word-parallel vs scalar", act, exact, ref, refExact)
	if !exact {
		t.Fatal("want exact analysis")
	}
	for id, p := range want {
		if act.Prob[id] != p {
			t.Errorf("P(%s) = %v, want %v", g.Node(id).Name, act.Prob[id], p)
		}
	}
}

var activitySink power.Activity

// TestAnalyzeExactAllocations pins a warm walk to the one allocation of
// the Activity it returns, on cordic at 52 steps (16 selects) and on a
// sweep-control design.
func TestAnalyzeExactAllocations(t *testing.T) {
	cordic, err := pmsynth.Synthesize(bench.Cordic().Design, pmsynth.Options{Budget: 52})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.Default()
	cfg.Ops = 20
	var control *pmsynth.Synthesis
	for seed := int64(1); control == nil; seed++ {
		if seed > 200 {
			t.Fatal("no sweep-control design with more than 6 selects in 200 seeds")
		}
		src := gen.Source(seed, cfg)
		if strings.Count(src, "(if ") > 26 {
			continue
		}
		syn := synthesizeSeed(t, seed, cfg)
		if len(power.DistinctSelects(syn.PM.Guards)) > 6 {
			control = syn
		}
	}
	for name, syn := range map[string]*pmsynth.Synthesis{"cordic": cordic, "sweep-control": control} {
		power.AnalyzeExact(syn.PM.Graph, syn.PM.Guards)
		allocs := testing.AllocsPerRun(20, func() {
			activitySink, _ = power.AnalyzeExact(syn.PM.Graph, syn.PM.Guards)
		})
		if allocs > 1 {
			t.Errorf("%s: a warm AnalyzeExact makes %v allocations, want 1", name, allocs)
		}
	}
}
