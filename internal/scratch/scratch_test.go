package scratch

import (
	"sync"
	"testing"
)

func TestListReusesUpToBound(t *testing.T) {
	var l List[[]int]
	var vs []*[]int
	for i := 0; i < Bound+2; i++ {
		vs = append(vs, l.Get())
	}
	for _, v := range vs {
		l.Put(v)
	}
	if len(l.free) != Bound {
		t.Fatalf("%d idle values, want the bound %d", len(l.free), Bound)
	}
	if got := l.Get(); got != vs[Bound-1] {
		t.Fatal("Get did not return the last value Put")
	}
}

func TestListWarmGetAllocatesNothing(t *testing.T) {
	var l List[[64]byte]
	l.Put(l.Get())
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("a warm Get and Put allocate %v times, want 0", n)
	}
}

func TestListConcurrentUse(t *testing.T) {
	var l List[int]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := l.Get()
				*v = w
				if *v != w {
					t.Errorf("value shared between two holders")
				}
				l.Put(v)
			}
		}(w)
	}
	wg.Wait()
}

func TestGrow(t *testing.T) {
	s := Grow([]int(nil), 4)
	if len(s) != 4 {
		t.Fatalf("len %d, want 4", len(s))
	}
	s[0] = 7
	if r := Grow(s[:1], 3); &r[0] != &s[0] || len(r) != 3 {
		t.Fatal("Grow within capacity did not reuse the array")
	}
	if r := Grow(s, 9); len(r) != 9 || &r[0] == &s[0] {
		t.Fatal("Grow past capacity did not allocate")
	}
}
