package cdfg

import (
	"sync"
	"testing"
)

// memoGraph builds the |a-b| shape used across the analysis tests.
func memoGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("memo")
	a := MustAdd(g.AddInput("a"))
	b := MustAdd(g.AddInput("b"))
	gt := MustAdd(g.AddOp(KindGt, "g", a, b))
	d1 := MustAdd(g.AddOp(KindSub, "d1", a, b))
	d2 := MustAdd(g.AddOp(KindSub, "d2", b, a))
	m := MustAdd(g.AddMux("m", gt, d1, d2))
	MustAdd(g.AddOutput("out", m))
	return g
}

func TestFaninMemoizedAndStableAcrossControlEdges(t *testing.T) {
	g := memoGraph(t)
	d1 := g.Lookup("d1")
	first := g.TransitiveFanin(d1)
	if len(first) != 3 { // d1, a, b
		t.Fatalf("fanin(d1) = %v, want 3 members", first.Sorted())
	}
	// Control edges are not dataflow: the cached cone must survive them.
	if err := g.AddControlEdge(g.Lookup("g"), d1); err != nil {
		t.Fatal(err)
	}
	second := g.TransitiveFanin(d1)
	if len(second) != len(first) {
		t.Errorf("fanin changed after control edge: %v vs %v", second.Sorted(), first.Sorted())
	}
}

func TestAnalysesInvalidatedOnNodeAdd(t *testing.T) {
	g := memoGraph(t)
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 2 {
		t.Fatalf("critical path = %d, want 2", cp)
	}
	// Extend the longest chain: the memoized value must refresh.
	m := g.Lookup("m")
	s := MustAdd(g.AddOp(KindAdd, "s", m, m))
	MustAdd(g.AddOutput("out2", s))
	cp2, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp2 != 3 {
		t.Errorf("critical path after extension = %d, want 3", cp2)
	}
	depth, _ := g.Levels()
	if depth[s] != 3 {
		t.Errorf("depth of appended op = %d, want 3", depth[s])
	}
}

// TestConcurrentAnalyses exercises the memo under concurrent access (run
// with -race): many goroutines querying the shared graph and forking it,
// as the sweep engine's workers do.
func TestConcurrentAnalyses(t *testing.T) {
	g := memoGraph(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if cp, _ := g.CriticalPath(); cp != 2 {
					t.Errorf("critical path = %d, want 2", cp)
					return
				}
				cone := g.TransitiveFanin(g.Lookup("m"))
				if len(cone) != 6 {
					t.Errorf("fanin(m) = %d members, want 6", len(cone))
					return
				}
				fork := g.Fork()
				if _, height := fork.Levels(); height[g.Lookup("m")] != 1 {
					t.Errorf("fork's height of m = %d, want 1", height[g.Lookup("m")])
					return
				}
			}
		}()
	}
	wg.Wait()
}
