package alloc

import (
	"fmt"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/scratch"
	"repro/internal/sim"
)

// Unit identifies one execution unit instance.
type Unit struct {
	Class cdfg.Class
	Index int
}

// String renders e.g. "add#0".
func (u Unit) String() string { return fmt.Sprintf("%s#%d", u.Class, u.Index) }

// Binding is the execution-unit allocation result.
type Binding struct {
	// UnitOf holds, indexed by NodeID, the execution unit of every
	// operation node. Other nodes hold the zero Unit, whose class is
	// cdfg.ClassIO: no operation has that class, so it means "no unit".
	UnitOf []Unit
	// Units counts the allocated units per class.
	Units map[cdfg.Class]int
}

// Lookup returns the unit operation id is bound to, and false when id has
// none.
func (b *Binding) Lookup(id cdfg.NodeID) (Unit, bool) {
	if id < 0 || int(id) >= len(b.UnitOf) || b.UnitOf[id].Class == cdfg.ClassIO {
		return Unit{}, false
	}
	return b.UnitOf[id], true
}

// MutuallyExclusive reports whether the guards prove a and b never execute
// in the same sample: some select gates a on one branch and b on the other.
func MutuallyExclusive(guards sim.Guards, a, b cdfg.NodeID) bool {
	for _, ga := range guards[a] {
		for _, gb := range guards[b] {
			if ga.Sel == gb.Sel && ga.WhenTrue != gb.WhenTrue {
				return true
			}
		}
	}
	return false
}

// bindScratch is Bind's working memory, kept in binders between calls:
// the op counts per step and per (slot, class), the ops in (step, ID)
// order, and the occupancy chains.
type bindScratch struct {
	perStep, perSlot []int
	ops              []cdfg.NodeID
	head, prev       []int
}

// binders holds the idle scratch of Bind.
var binders scratch.List[bindScratch]

// Bind allocates execution units for the schedule. Operations of one class
// are packed greedily (earliest step first, then least ID); an op joins an
// existing unit unless another op on that unit occupies the same modulo
// slot without being provably exclusive (by the power management guards).
// Every operation's step must lie in [1, s.Steps].
//
// A warm call allocates only the Binding it returns: the op order comes
// from a counting pass over the steps, each (unit, slot) occupancy is a
// chain through one flat slice, and those buffers are reused from call to
// call.
func Bind(s *sched.Schedule, guards sim.Guards) *Binding {
	g := s.Graph
	n := g.NumNodes()
	b := &Binding{
		UnitOf: make([]Unit, n),
		Units:  make(map[cdfg.Class]int),
	}
	sc := binders.Get()
	defer binders.Put(sc)

	// One pass counts the ops per step, for the (step, ID) order, and per
	// (slot, class), which bounds each class's units: an op opens a unit
	// only when every open one already holds an op in its slot.
	perStep := scratch.Grow(sc.perStep, s.Steps+1)
	perSlot := scratch.Grow(sc.perSlot, s.II*cdfg.NumClasses)
	sc.perStep, sc.perSlot = perStep, perSlot
	clear(perStep)
	clear(perSlot)
	numOps := 0
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			t := s.Time[nd.ID]
			perStep[t]++
			perSlot[((t-1)%s.II)*cdfg.NumClasses+int(nd.Class())]++
			numOps++
		}
	}
	pos := 0
	for t, k := range perStep {
		perStep[t] = pos
		pos += k
	}
	ops := scratch.Grow(sc.ops, numOps)
	sc.ops = ops
	for _, nd := range g.Nodes() {
		if nd.IsOp() {
			t := s.Time[nd.ID]
			ops[perStep[t]] = nd.ID
			perStep[t]++
		}
	}

	// Number the units of all classes in one sequence, class c's from
	// base[c] on. head[unit*II+slot] is 1 + the last op placed in that
	// unit and slot (0: none), and prev[op] is 1 + the op placed there
	// before it.
	var base, open [cdfg.NumClasses]int
	units := 0
	for c := range base {
		base[c] = units
		most := 0
		for slot := 0; slot < s.II; slot++ {
			most = max(most, perSlot[slot*cdfg.NumClasses+c])
		}
		units += most
	}
	head := scratch.Grow(sc.head, units*s.II)
	prev := scratch.Grow(sc.prev, n)
	sc.head, sc.prev = head, prev
	clear(head)

	for _, id := range ops {
		cls := g.Node(id).Class()
		slot := (s.Time[id] - 1) % s.II
		idx := 0
		for ; idx < open[cls]; idx++ {
			if exclusiveWithAll(guards, id, head[(base[cls]+idx)*s.II+slot], prev) {
				break
			}
		}
		if idx == open[cls] {
			open[cls]++
		}
		cell := (base[cls]+idx)*s.II + slot
		prev[id] = head[cell]
		head[cell] = int(id) + 1
		b.UnitOf[id] = Unit{Class: cls, Index: idx}
	}
	for c, k := range open {
		if k > 0 {
			b.Units[cdfg.Class(c)] = k
		}
	}
	return b
}

// exclusiveWithAll reports whether id is mutually exclusive with every op
// on the chain that starts at link (1 + an op ID, 0 for the end).
func exclusiveWithAll(guards sim.Guards, id cdfg.NodeID, link int, prev []int) bool {
	for ; link != 0; link = prev[link-1] {
		if !MutuallyExclusive(guards, id, cdfg.NodeID(link-1)) {
			return false
		}
	}
	return true
}
