package rtl

import (
	"errors"
	"fmt"
)

// Simulator is a zero-delay, cycle-based, two-valued simulator with
// switching-activity accounting. Each net toggle contributes a weight of
// 1 + fanout — a technology-free proxy for the capacitance switched.
type Simulator struct {
	nl     *Netlist
	values []bool // per net
	order  []int  // levelized combinational gate indices
	fanout []int  // per net

	weightedToggles float64
	cycles          int
}

// NewSimulator levelizes the netlist and returns a simulator. It fails on
// combinational cycles (flip-flop outputs break cycles).
func NewSimulator(nl *Netlist) (*Simulator, error) {
	s := &Simulator{
		nl:     nl,
		values: make([]bool, nl.numNets),
		fanout: make([]int, nl.numNets),
	}
	s.values[One] = true
	for _, g := range nl.gates {
		for _, in := range g.Ins {
			s.fanout[in]++
		}
	}
	for _, out := range nl.outputs {
		s.fanout[out]++
	}
	// Levelize combinational gates: DFF outputs, inputs and constants
	// are sources; a combinational gate is ready when all its input
	// drivers are placed.
	placed := make([]bool, len(nl.gates))
	isComb := make([]bool, len(nl.gates))
	remaining := 0
	for i, g := range nl.gates {
		if g.Kind != GDffE {
			isComb[i] = true
			remaining++
		}
	}
	ready := func(g Gate) bool {
		for _, in := range g.Ins {
			d := nl.driver[in]
			if d >= 0 && isComb[d] && !placed[d] {
				return false
			}
		}
		return true
	}
	for remaining > 0 {
		progress := false
		for i, g := range nl.gates {
			if !isComb[i] || placed[i] {
				continue
			}
			if ready(g) {
				placed[i] = true
				s.order = append(s.order, i)
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil, errors.New("rtl: combinational cycle detected")
		}
	}
	return s, nil
}

// SetInput drives the named input bus with the (unsigned) value.
func (s *Simulator) SetInput(name string, value int64) error {
	bus, ok := s.nl.inNames[name]
	if !ok {
		return fmt.Errorf("rtl: unknown input %q", name)
	}
	for i, net := range bus {
		s.setNet(net, value>>uint(i)&1 == 1)
	}
	return nil
}

func (s *Simulator) setNet(net Net, v bool) {
	if s.values[net] != v {
		s.values[net] = v
		s.weightedToggles += float64(1 + s.fanout[net])
	}
}

func (s *Simulator) eval(g Gate) bool {
	in := func(i int) bool { return s.values[g.Ins[i]] }
	switch g.Kind {
	case GInv:
		return !in(0)
	case GBuf:
		return in(0)
	case GAnd:
		return in(0) && in(1)
	case GOr:
		return in(0) || in(1)
	case GNand:
		return !(in(0) && in(1))
	case GNor:
		return !(in(0) || in(1))
	case GXor:
		return in(0) != in(1)
	case GMux2:
		if in(0) {
			return in(1)
		}
		return in(2)
	default:
		panic(fmt.Sprintf("rtl: eval on %s", g.Kind))
	}
}

// Propagate settles the combinational logic from the current inputs and
// flip-flop states, accumulating switching activity.
func (s *Simulator) Propagate() {
	for _, gi := range s.order {
		g := s.nl.gates[gi]
		s.setNet(g.Out, s.eval(g))
	}
}

// Step performs one clock edge: every enabled flip-flop captures its data
// input, then the combinational logic settles. One call is one cycle.
func (s *Simulator) Step() {
	// Capture D values first (edge semantics: all FFs sample the
	// pre-edge values simultaneously).
	next := make([]bool, len(s.nl.dffs))
	for i, gi := range s.nl.dffs {
		g := s.nl.gates[gi]
		if s.values[g.Ins[1]] { // enable
			next[i] = s.values[g.Ins[0]]
		} else {
			next[i] = s.values[g.Out]
		}
	}
	for i, gi := range s.nl.dffs {
		s.setNet(s.nl.gates[gi].Out, next[i])
	}
	s.Propagate()
	s.cycles++
}

// ReadOutput returns the named output bus value as an unsigned integer.
func (s *Simulator) ReadOutput(name string) (int64, error) {
	bus, ok := s.nl.outName[name]
	if !ok {
		return 0, fmt.Errorf("rtl: unknown output %q", name)
	}
	var v int64
	for i, net := range bus {
		if s.values[net] {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// ReadBus returns the value on an arbitrary bus.
func (s *Simulator) ReadBus(bus []Net) int64 {
	var v int64
	for i, net := range bus {
		if s.values[net] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// ResetStats clears the activity counters (use after initialization
// transients).
func (s *Simulator) ResetStats() {
	s.weightedToggles = 0
	s.cycles = 0
}

// AveragePower returns the fanout-weighted toggles per cycle: the
// DesignPower substitute.
func (s *Simulator) AveragePower() float64 {
	if s.cycles == 0 {
		return 0
	}
	return s.weightedToggles / float64(s.cycles)
}
