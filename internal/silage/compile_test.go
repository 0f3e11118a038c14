package silage_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/gen"
	"repro/internal/silage"
)

// TestTemporaryNamesNeverCollide compiles designs that declare a signal
// spelled like a compiler temporary. The design's signal keeps its name
// and the temporary takes one no identifier can spell; a temporary whose
// name only an alias takes (no node) keeps its own.
func TestTemporaryNamesNeverCollide(t *testing.T) {
	for _, c := range []struct {
		src                string
		user, temp         string
		userKind, tempKind cdfg.Kind
	}{
		{tempNameSources[0].src, "_t3", "$t3", cdfg.KindAdd, cdfg.KindAdd},
		{tempNameSources[1].src, "_t1", "$t1", cdfg.KindSub, cdfg.KindAdd},
		{"func f(a: num, b: num) o: num = begin x = (a + b) * a; _t1 = a; o = x + _t1; end", "", "_t1", 0, cdfg.KindAdd},
	} {
		d, err := silage.Compile(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		g := d.Graph
		if c.user != "" {
			if id := g.Lookup(c.user); id == cdfg.InvalidNode || g.Node(id).Kind != c.userKind {
				t.Errorf("%s: signal %s is not the design's %s", c.src, c.user, c.userKind)
			}
		}
		if id := g.Lookup(c.temp); id == cdfg.InvalidNode || g.Node(id).Kind != c.tempKind {
			t.Errorf("%s: no temporary %s of kind %s", c.src, c.temp, c.tempKind)
		}
	}
}

// TestCompileAllocations pins what a warm compile allocates: the graph
// with its node, argument, successor and name blocks, its name index and
// interface lists, and the topological order Validate memoizes. The AST
// and the elaborator's tables come from the free list.
func TestCompileAllocations(t *testing.T) {
	cfg := gen.Default()
	cfg.Ops, cfg.MuxFanIn = 150, 1
	for _, c := range []struct {
		name, src string
		max       float64
	}{
		{"150-op datapath", gen.Source(1, cfg), 32},
		{"gcd", bench.GCD().Source, 24},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := silage.Compile(c.src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s: Compile allocates %.0f times, want at most %.0f", c.name, allocs, c.max)
		}
	}
}

// TestGraphBoundCoversCallFreeDesigns checks that the bound Compile sizes
// a graph's blocks from covers every node and argument of each golden
// design that calls no function, so a change to how a construct
// elaborates cannot leave the bound short unseen.
func TestGraphBoundCoversCallFreeDesigns(t *testing.T) {
	checked := 0
	for _, s := range goldenSources(t) {
		d, nodes, args, calls, err := silage.CompileBound(s.src)
		if err != nil || calls {
			continue
		}
		checked++
		g := d.Graph
		used := 0
		for _, n := range g.Nodes() {
			used += len(n.Args)
		}
		if g.NumNodes() > nodes || used > args {
			t.Errorf("%s: %d nodes and %d arguments, bound %d and %d", s.label, g.NumNodes(), used, nodes, args)
		}
	}
	if checked < 600 {
		t.Fatalf("only %d call-free designs compiled", checked)
	}
}

// TestConcurrentCompileDeterministic compiles accepted and rejected
// sources on several goroutines at once, each starting at a different
// source, and checks every result against the serial one once all have
// finished: a block reused while a compile still used it, or one a later
// compile rewrote under a returned design, shows as a different digest.
func TestConcurrentCompileDeterministic(t *testing.T) {
	var srcs []source
	for i, s := range goldenSources(t) {
		// Every hand-written source and a tenth of the generated ones.
		if !strings.HasPrefix(s.label, "gen/") || i%10 == 0 {
			srcs = append(srcs, s)
		}
	}
	want := make([]string, len(srcs))
	for i, s := range srcs {
		want[i] = outcome(s.src)
	}
	const workers = 4
	type result struct {
		d   *silage.Design
		err error
	}
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]result, len(srcs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range srcs {
				i := (k + w*len(srcs)/workers) % len(srcs)
				d, err := silage.Compile(srcs[i].src)
				got[w][i] = result{d, err}
			}
		}(w)
	}
	wg.Wait()
	for w, rs := range got {
		for i, r := range rs {
			if o := describe(r.d, r.err); o != want[i] {
				t.Errorf("worker %d, %s: got %s, want %s", w, srcs[i].label, o, want[i])
			}
		}
	}
}
