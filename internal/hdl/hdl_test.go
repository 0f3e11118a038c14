package hdl

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bench"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/silage"
)

// TestSanitize pins the identifier rule every port, register and signal
// is named by: each name comes out legal in VHDL and in Verilog, with no
// leading, trailing or doubled underscore.
func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"out:x":  "out_x",
		"c:-5":   "c_5",
		"_t1":    "t1",
		"_t3":    "t3",
		"9lives": "n9lives",
		"9a":     "n9a",
		"_9":     "n9",
		"a__b_":  "a_b",
		"":       "sig",
		"::":     "sig",
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
		out = append(out, lowerAt(t, c)...)
	}
	return out
}

// lowerAt lowers the power managed and baseline controllers of c at every
// budget of c.
func lowerAt(t *testing.T, c *bench.Circuit) []*Design {
	t.Helper()
	var out []*Design
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
	return out
}

// TestConditionPorts checks how the controller reads each condition: a
// primary input through its own port, any other node through a one-bit
// port the datapath exports, cond_ for its register and next_ for its
// result. The controller reads exactly the bits its enables read.
func TestConditionPorts(t *testing.T) {
	inputConds, nextConds := 0, 0
	for _, d := range lowered(t) {
		read := make(map[Src]bool)
		for _, e := range enables(d) {
			for _, b := range e.Bits {
				read[b.Src] = true
				if d.Cond(b.Src) == (Port{}) {
					t.Errorf("%s: no port for the bit %+v", d.Top, b.Src)
				}
			}
		}
		if len(d.Conds) != len(read) {
			t.Errorf("%s: %d condition ports, the enables read %d bits", d.Top, len(d.Conds), len(read))
		}
		for _, c := range d.Conds {
			p, name := c.Port, Sanitize(d.Graph.Node(c.Node).Name)
			exported := slices.Contains(d.DatapathPorts, Port{Name: p.Name, Out: true})
			switch {
			case d.Graph.Node(c.Node).Kind == cdfg.KindInput:
				inputConds++
				if p != (Port{Name: d.Signal(c.Src), Bus: true}) || exported {
					t.Errorf("%s: input condition %s reads %+v, exported %v", d.Top, name, p, exported)
				}
			case c.Next:
				nextConds++
				if p != (Port{Name: "next_" + name}) || !exported {
					t.Errorf("%s: result condition %s reads %+v, exported %v", d.Top, name, p, exported)
				}
			case p != (Port{Name: "cond_" + name}) || !exported:
				t.Errorf("%s: condition %s reads %+v, exported %v", d.Top, name, p, exported)
			}
			if !slices.Contains(d.ControllerPorts, p) {
				t.Errorf("%s: controller has no port %+v", d.Top, p)
			}
		}
	}
	if inputConds == 0 || nextConds == 0 {
		t.Errorf("%d input and %d result conditions; the corpus must read both", inputConds, nextConds)
	}
}

// enables lists every load enable of d: the value registers' and the
// operand loads'.
func enables(d *Design) []Enable {
	var out []Enable
	for _, r := range d.Regs {
		out = append(out, r.En)
	}
	for _, u := range d.Units {
		for _, ld := range u.Loads {
			out = append(out, ld.En)
		}
	}
	return out
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

// TestLowerLists checks the lists the printers and the chip walk: one
// register per operation, in ID order, latched in the operation's step;
// one operand load per operation that is not a multiplexor, one step
// earlier, on the unit it is bound to; units in (class, index) order, none
// for multiplexors, each with its loads in steering order.
func TestLowerLists(t *testing.T) {
	for _, d := range lowered(t) {
		c := d.Ctrl
		at := c.Schedule.Time
		var ops []cdfg.NodeID
		for _, n := range d.Graph.Nodes() {
			if n.IsOp() {
				ops = append(ops, n.ID)
			}
		}
		if len(d.Regs) != len(ops) {
			t.Fatalf("%s: %d registers for %d operations", d.Top, len(d.Regs), len(ops))
		}
		for i, r := range d.Regs {
			n := d.Graph.Node(r.Op)
			if r.Op != ops[i] || r.En.State != at[r.Op] {
				t.Errorf("%s: register %d is %s latched in state %d", d.Top, i, r.Name, r.En.State)
			}
			if mux := n.Kind == cdfg.KindMux; mux != (r.Unit < 0) || mux != (r.Mux != nil) {
				t.Errorf("%s: %s has unit %d and steering %v", d.Top, r.Name, r.Unit, r.Mux)
			}
		}
		regOf := make(map[cdfg.NodeID]Reg)
		for _, r := range d.Regs {
			regOf[r.Op] = r
		}
		loaded := make(map[cdfg.NodeID]int)
		for i, u := range d.Units {
			if u.Class == cdfg.ClassMux {
				t.Errorf("%s: a multiplexor unit", d.Top)
			}
			if i > 0 {
				prev := d.Units[i-1]
				if prev.Class > u.Class {
					t.Errorf("%s: unit %s after %s", d.Top, u.A, prev.A)
				}
			}
			for j, ld := range u.Loads {
				loaded[ld.Op]++
				if r := regOf[ld.Op]; r.Unit != i || c.Binding.UnitOf[ld.Op].Class != u.Class || ld.En.State != at[ld.Op]-1 {
					t.Errorf("%s: %s loads %s in state %d, register on unit %d", d.Top, u.A, ld.Go, ld.En.State, r.Unit)
				}
				if j > 0 {
					prev := u.Loads[j-1]
					if cmp.Or(cmp.Compare(prev.En.State, ld.En.State), cmp.Compare(prev.Op, ld.Op)) >= 0 {
						t.Errorf("%s: %s's loads out of (step, operation) order", d.Top, u.A)
					}
				}
			}
		}
		for _, r := range d.Regs {
			want := 1
			if r.Mux != nil {
				want = 0
			}
			if loaded[r.Op] != want {
				t.Errorf("%s: %s has %d operand loads, want %d", d.Top, r.Name, loaded[r.Op], want)
			}
		}
	}
}

// TestSameStepReads checks the rule every data source and guard bit
// follows, for the power managed and the baseline structure alike: a read
// during step s names the producing operation's combinational result if
// the producer executes in s, and its register if it executed earlier. No
// read names a value produced later, and the outputs, read once the
// sample is done, name registers only.
func TestSameStepReads(t *testing.T) {
	results := 0
	for _, d := range lowered(t) {
		at := d.Ctrl.Schedule.Time
		check := func(what string, s Src, step int) {
			root := d.Graph.Node(s.Node)
			for root.Kind == cdfg.KindShl || root.Kind == cdfg.KindShr {
				root = d.Graph.Node(root.Args[0])
			}
			switch {
			case !root.IsOp():
				if s.Next {
					t.Errorf("%s: %s reads %s's result, which has no step", d.Top, what, root.Name)
				}
			case at[root.ID] > step:
				t.Errorf("%s: %s reads %s in step %d, before it executes in %d", d.Top, what, root.Name, step, at[root.ID])
			case s.Next != (at[root.ID] == step):
				t.Errorf("%s: %s in step %d reads %s, executed in %d, with Next %v", d.Top, what, step, root.Name, at[root.ID], s.Next)
			case s.Next:
				results++
			}
		}
		checkEnable := func(what string, e Enable) {
			for _, b := range e.Bits {
				check(what+"'s guard", b.Src, e.State)
			}
		}
		for _, r := range d.Regs {
			checkEnable(r.Ld, r.En)
			for _, s := range r.Mux {
				check(r.Name+"'s steering", s, r.En.State)
			}
		}
		for _, u := range d.Units {
			for _, ld := range u.Loads {
				checkEnable(ld.Go, ld.En)
				for _, s := range ld.Args {
					check(ld.Go+"'s operand", s, ld.En.State)
				}
			}
		}
		for _, o := range d.Outputs {
			check(o.Name, o.Src, d.Ctrl.Steps+1)
		}
	}
	if results == 0 {
		t.Error("no read of a result in the corpus; the rule went unchecked")
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

// clash names its ports like the printers' own signals, like reserved
// words of both languages, and like each other but for case.
const clash = `
func clash(clk: num<8>, r_x: num<8>, signal: num<8>, A: num<8>, a: num<8>) out: num<8>, X: num<8> =
begin
    x = clk + r_x;
    out = x - signal;
    X = A + a;
end
`

// legal is an identifier both VHDL-93 and Verilog-2001 accept, reserved
// words aside: a letter, then letters and digits with single underscores
// between them.
var legal = regexp.MustCompile(`^[A-Za-z](_?[A-Za-z0-9])*$`)

// TestIdentifiers checks the one naming rule over the lowered corpus, the
// regression sources and clash: every identifier the lowering hands the
// printers is legal in VHDL-93 and Verilog-2001, is no reserved word of
// either, and is unique within its design unit without regard to case.
func TestIdentifiers(t *testing.T) {
	designs := lowered(t)
	paths, err := filepath.Glob("../../testdata/regress/*.sil")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no regression sources: %v", err)
	}
	sources := []string{clash}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, string(src))
	}
	for _, src := range sources {
		d := silage.MustCompile(src)
		cp, err := d.Graph.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, lowerAt(t, &bench.Circuit{Name: d.Graph.Name, Design: d, Budgets: []int{max(cp, 1)}})...)
	}
	for _, d := range designs {
		ports := func(ps []Port) []string {
			var out []string
			for _, p := range ps {
				out = append(out, p.Name)
			}
			return out
		}
		datapath := append([]string{d.Datapath}, ports(d.DatapathPorts)...)
		for _, r := range d.Regs {
			datapath = append(datapath, r.Name)
			if d.OwnResult(r) {
				datapath = append(datapath, r.Result)
			}
		}
		for _, u := range d.Units {
			datapath = append(datapath, u.A, u.B, u.Label)
			if u.Y != "" {
				datapath = append(datapath, u.Y)
			}
		}
		units := map[string][]string{
			"datapath":   datapath,
			"controller": append([]string{d.FSM}, ports(d.ControllerPorts)...),
			"top":        slices.Concat([]string{d.Top}, ports(d.TopPorts), d.Wires),
		}
		for unit, ids := range units {
			seen := make(map[string]bool)
			for _, id := range ids {
				folded := strings.ToLower(id)
				switch {
				case !legal.MatchString(id):
					t.Errorf("%s %s: %q is no legal identifier", d.Top, unit, id)
				case reserved[folded] && id != "clk" && id != "rst": // the lowering's own ports
					t.Errorf("%s %s: %q is reserved", d.Top, unit, id)
				case seen[folded]:
					t.Errorf("%s %s: %q declared twice", d.Top, unit, id)
				}
				seen[folded] = true
			}
		}
	}
	for _, w := range []string{"out", "in", "signal", "process", "module", "wire", "reg", "assign", "clk", "state", "unsigned"} {
		if !reserved[w] {
			t.Errorf("%q is not reserved", w)
		}
	}
}
