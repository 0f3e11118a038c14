package alloc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cdfg"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Unit identifies one execution unit instance.
type Unit struct {
	Class cdfg.Class
	Index int
}

// String renders e.g. "add#0".
func (u Unit) String() string { return fmt.Sprintf("%s#%d", u.Class, u.Index) }

// Binding is the execution-unit allocation result. The register file is
// a separate analysis of the schedule alone (Registers).
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

// Bind allocates execution units for the schedule. Operations of one class
// are packed greedily (earliest step first, then least ID); an op joins an
// existing unit unless another op on that unit occupies the same modulo
// slot without being provably exclusive (by the power management guards).
// Every operation's step must lie in [1, s.Steps].
//
// A call allocates the same few times whatever the graph's size: the op
// order comes from a counting pass over the steps, and each (unit, slot)
// occupancy is a chain through one flat slice.
func Bind(s *sched.Schedule, guards sim.Guards) *Binding {
	g := s.Graph
	n := g.NumNodes()
	b := &Binding{
		UnitOf: make([]Unit, n),
		Units:  make(map[cdfg.Class]int),
	}

	// One pass counts the ops per step, for the (step, ID) order, and per
	// (slot, class), which bounds each class's units: an op opens a unit
	// only when every open one already holds an op in its slot.
	perStep := make([]int, s.Steps+1)
	perSlot := make([]int, s.II*cdfg.NumClasses)
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
	ops := make([]cdfg.NodeID, numOps)
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
	head := make([]int, units*s.II)
	prev := make([]int, n)

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

// lifetime returns, for every value-producing node, the interval
// (def, lastUse]: the value is written at the clock edge ending step def
// and must be held until its last consumer's step. Consumers behind
// transparent wires inherit the wire consumers' times. Output values are
// held to the end of the schedule.
func lifetime(s *sched.Schedule) (def, lastUse []int, needs []bool) {
	g := s.Graph
	n := g.NumNodes()
	def = make([]int, n)
	lastUse = make([]int, n)
	needs = make([]bool, n)

	// lastUseOf computes the maximum consumer step, looking through
	// wires and extending through outputs.
	var lastUseOf func(id cdfg.NodeID) int
	memo := make(map[cdfg.NodeID]int)
	lastUseOf = func(id cdfg.NodeID) int {
		if v, ok := memo[id]; ok {
			return v
		}
		last := 0
		for _, su := range g.Succs(id) {
			sn := g.Node(su)
			switch {
			case sn.Kind == cdfg.KindOutput:
				if s.Steps > last {
					last = s.Steps
				}
			case sn.Class() == cdfg.ClassWire:
				if lu := lastUseOf(su); lu > last {
					last = lu
				}
			default:
				if s.Time[su] > last {
					last = s.Time[su]
				}
			}
		}
		memo[id] = last
		return last
	}

	for _, nd := range g.Nodes() {
		switch {
		case nd.Kind == cdfg.KindConst, nd.Kind == cdfg.KindOutput, nd.Class() == cdfg.ClassWire:
			// Hardwired or pass-through: no register.
		case nd.Kind == cdfg.KindInput:
			def[nd.ID] = 0
			lastUse[nd.ID] = lastUseOf(nd.ID)
			needs[nd.ID] = lastUse[nd.ID] > 0
		default:
			def[nd.ID] = s.Time[nd.ID]
			lastUse[nd.ID] = lastUseOf(nd.ID)
			needs[nd.ID] = lastUse[nd.ID] > def[nd.ID]
		}
	}
	return def, lastUse, needs
}

// Registers allocates the schedule's register file from lifetime
// analysis: left-edge for non-pipelined schedules, which also returns
// each value-producing node's register index, and a modulo-slot demand
// bound for pipelined ones, whose index map is empty. count is the
// minimum register count.
func Registers(s *sched.Schedule) (count int, regOf map[cdfg.NodeID]int) {
	def, lastUse, needs := lifetime(s)
	g := s.Graph

	var vals []cdfg.NodeID
	for _, nd := range g.Nodes() {
		if needs[nd.ID] {
			vals = append(vals, nd.ID)
		}
	}

	if s.II == s.Steps {
		// Left-edge: sort by definition time, reuse the first free
		// register (its previous value dead by our start).
		slices.SortFunc(vals, func(a, b cdfg.NodeID) int {
			if def[a] != def[b] {
				return cmp.Compare(def[a], def[b])
			}
			return cmp.Compare(a, b)
		})
		regOf := make(map[cdfg.NodeID]int)
		var regEnd []int
		for _, v := range vals {
			placed := false
			for r := range regEnd {
				if regEnd[r] <= def[v] {
					regEnd[r] = lastUse[v]
					regOf[v] = r
					placed = true
					break
				}
			}
			if !placed {
				regEnd = append(regEnd, lastUse[v])
				regOf[v] = len(regEnd) - 1
			}
		}
		return len(regEnd), regOf
	}

	// Pipelined: a value occupies modulo slot m once per overlapped
	// iteration; register demand is the worst slot occupancy.
	maxDemand := 0
	for m := 0; m < s.II; m++ {
		demand := 0
		for _, v := range vals {
			for t := def[v] + 1; t <= lastUse[v]; t++ {
				if (t-1)%s.II == m {
					demand++
					break
				}
			}
			// A lifetime longer than II occupies the slot in
			// several concurrent iterations.
			span := lastUse[v] - def[v]
			if span > s.II {
				demand += span/s.II - 1
			}
		}
		if demand > maxDemand {
			maxDemand = demand
		}
	}
	return maxDemand, map[cdfg.NodeID]int{}
}

// MaxOverlap returns the maximum number of simultaneously live values in a
// non-pipelined schedule: the information-theoretic register lower bound,
// which left-edge allocation achieves on interval graphs.
func MaxOverlap(s *sched.Schedule) int {
	def, lastUse, needs := lifetime(s)
	max := 0
	for t := 1; t <= s.Steps; t++ {
		live := 0
		for id := range needs {
			if needs[id] && def[id] < t && t <= lastUse[id] {
				live++
			}
		}
		if live > max {
			max = live
		}
	}
	return max
}
