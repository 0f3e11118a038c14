package hdl

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/silage"
)

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"out:x":  "out_x",
		"c:-5":   "c__5",
		"_t1":    "_t1",
		"_t3":    "_t3",
		"9lives": "n9lives",
		"9a":     "n9a",
		"":       "sig",
		"normal": "normal",
	}
	for in, want := range cases {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// inputSelect gates its two operations on a primary input, so the
// controller reads that input's port as a condition.
const inputSelect = `
func insel(a: num<8>, b: num<8>, pick: bool) o: num<8> =
begin
    o = if pick -> a + b || a - b fi;
end
`

// lowered lowers the power managed and baseline controllers of every
// paper and extra circuit at every budget of the circuit, of |a-b|, and
// of inputSelect.
func lowered(t *testing.T) []*Design {
	t.Helper()
	circuits := append(append(bench.All(), bench.Extras()...), bench.AbsDiff())
	circuits = append(circuits, &bench.Circuit{Name: "insel", Design: silage.MustCompile(inputSelect), Budgets: []int{2, 3}})
	var out []*Design
	for _, c := range circuits {
		for _, budget := range c.Budgets {
			r, err := core.Schedule(c.Graph(), core.Config{Budget: budget, Weights: power.Weights})
			if err != nil {
				t.Fatalf("%s at %d: %v", c.Name, budget, err)
			}
			b := alloc.Bind(r.Schedule, r.Guards)
			for _, pm := range []bool{true, false} {
				ctl, err := ctrl.Build(r.Schedule, b, r.Guards, pm)
				if err != nil {
					t.Fatalf("%s at %d: %v", c.Name, budget, err)
				}
				d, err := Lower(ctl, c.Design.Width)
				if err != nil {
					t.Fatalf("%s at %d: %v", c.Name, budget, err)
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// TestConditionPorts checks how the controller reads each condition: a
// primary input through its own port, any other node through the
// datapath's one-bit cond_ export.
func TestConditionPorts(t *testing.T) {
	inputConds := 0
	for _, d := range lowered(t) {
		for _, id := range d.Ctrl.CondNodes {
			p := d.Cond(id)
			exported := slices.Contains(d.Conds, id)
			switch {
			case d.Graph.Node(id).Kind == cdfg.KindInput:
				inputConds++
				if p != (Port{Name: d.Name(id), Bus: true}) || exported {
					t.Errorf("%s: input condition %s reads %+v, exported %v", d.Top, d.Name(id), p, exported)
				}
			case p != (Port{Name: "cond_" + d.Name(id)}) || !exported:
				t.Errorf("%s: condition %s reads %+v, exported %v", d.Top, d.Name(id), p, exported)
			}
			if !slices.Contains(d.ControllerPorts, p) {
				t.Errorf("%s: controller has no port %+v", d.Top, p)
			}
		}
	}
	if inputConds == 0 {
		t.Error("no design reads a primary input as a condition")
	}
}

func TestLowerWidth(t *testing.T) {
	ctl := lowered(t)[0].Ctrl
	for _, w := range []int{0, 65} {
		want := fmt.Sprintf("width %d outside [1,64]", w)
		if _, err := Lower(ctl, w); err == nil || err.Error() != want {
			t.Errorf("width %d: err = %v, want %q", w, err, want)
		}
	}
	for _, w := range []int{1, 64} {
		if _, err := Lower(ctl, w); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

// TestLowerLists checks the lists the printers walk: every operation once,
// in ID order, with signal names no other operation uses, steered by the
// unit it is bound to; units in class order
// (ctrl's tests pin the index order within a class), each with its
// operations in ID order.
func TestLowerLists(t *testing.T) {
	for _, d := range lowered(t) {
		if !slices.IsSorted(d.Ops) {
			t.Errorf("%s: ops not in ID order: %v", d.Top, d.Ops)
		}
		signals := make(map[string]bool)
		for _, op := range d.Ops {
			for _, name := range []string{d.Reg(op), d.Ld(op), d.Go(op)} {
				if signals[name] {
					t.Errorf("%s: two operations name the signal %s", d.Top, name)
				}
				signals[name] = true
			}
		}
		var steered []int
		for i, u := range d.Units {
			if i > 0 && d.Units[i-1].Class > u.Class {
				t.Errorf("%s: unit %s after %s", d.Top, u.Name, d.Units[i-1].Name)
			}
			if !slices.IsSorted(u.Ops) {
				t.Errorf("%s: %s's ops not in ID order: %v", d.Top, u.Name, u.Ops)
			}
			for _, op := range u.Ops {
				if d.UnitOf(op) != u.Name {
					t.Errorf("%s: %s steers %s, bound to %s", d.Top, u.Name, d.Name(op), d.UnitOf(op))
				}
				steered = append(steered, int(op))
			}
		}
		slices.Sort(steered)
		ops := make([]int, len(d.Ops))
		for i, op := range d.Ops {
			ops[i] = int(op)
		}
		if !slices.Equal(steered, ops) {
			t.Errorf("%s: units steer %v, ops are %v", d.Top, steered, ops)
		}
	}
}

// TestTopLevelWiring checks the top level against the two instances it
// wires: each instance connects each of its ports once, every port meets
// a top-level port or a wire, each wire is driven by one instance and
// read by the other, and the wires are exactly the instance ports that
// are not top-level ports.
func TestTopLevelWiring(t *testing.T) {
	for _, d := range lowered(t) {
		top := make(map[string]Port)
		for _, p := range d.TopPorts {
			top[p.Name] = p
		}
		wires := make(map[string]bool)
		for _, w := range d.Wires {
			if wires[w] {
				t.Errorf("%s: wire %s declared twice", d.Top, w)
			}
			if _, ok := top[w]; ok {
				t.Errorf("%s: wire %s is also a top-level port", d.Top, w)
			}
			wires[w] = true
		}
		drivers, readers := make(map[string]int), make(map[string]int)
		for _, inst := range [][]Port{d.DatapathPorts, d.ControllerPorts} {
			seen := make(map[string]bool)
			for _, p := range inst {
				if seen[p.Name] {
					t.Errorf("%s: an instance connects %s twice", d.Top, p.Name)
				}
				seen[p.Name] = true
				if _, ok := top[p.Name]; !ok && !wires[p.Name] {
					t.Errorf("%s: instance port %s meets no signal", d.Top, p.Name)
				}
				if p.Out {
					drivers[p.Name]++
				} else {
					readers[p.Name]++
				}
			}
		}
		for _, w := range d.Wires {
			if drivers[w] != 1 || readers[w] != 1 {
				t.Errorf("%s: wire %s has %d drivers and %d readers, want 1 and 1", d.Top, w, drivers[w], readers[w])
			}
		}
		for _, p := range d.TopPorts {
			switch {
			case p.Out && (drivers[p.Name] != 1 || readers[p.Name] != 0):
				t.Errorf("%s: output %s has %d drivers and %d readers", d.Top, p.Name, drivers[p.Name], readers[p.Name])
			case !p.Out && (drivers[p.Name] != 0 || readers[p.Name] == 0):
				t.Errorf("%s: input %s has %d drivers and %d readers", d.Top, p.Name, drivers[p.Name], readers[p.Name])
			}
		}
	}
}
