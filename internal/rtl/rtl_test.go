package rtl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// harness builds a two-input combinational test netlist and returns an
// evaluation function of the named output.
func harness(t *testing.T, width int, build func(n *Netlist, a, b []Net)) func(a, b int64) int64 {
	t.Helper()
	n := New("t")
	a := n.Input("a", width)
	b := n.Input("b", width)
	build(n, a, b)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	return func(av, bv int64) int64 {
		if err := sim.SetInput("a", av); err != nil {
			t.Fatal(err)
		}
		if err := sim.SetInput("b", bv); err != nil {
			t.Fatal(err)
		}
		sim.Propagate()
		v, err := sim.ReadOutput("o")
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func TestRippleAdderExhaustive6Bit(t *testing.T) {
	eval := harness(t, 6, func(n *Netlist, a, b []Net) {
		sum, cout := n.RippleAdder(a, b, Zero)
		n.Output("o", append(append([]Net(nil), sum...), cout))
	})
	for a := int64(0); a < 64; a++ {
		for b := int64(0); b < 64; b++ {
			if got, want := eval(a, b), a+b; got != want {
				t.Fatalf("%d+%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestRippleSubtractorRandom(t *testing.T) {
	eval := harness(t, 8, func(n *Netlist, a, b []Net) {
		d, _ := n.RippleSubtractor(a, b)
		n.Output("o", d)
	})
	f := func(a, b uint8) bool {
		return eval(int64(a), int64(b)) == int64(uint8(a-b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestComparatorsRandom(t *testing.T) {
	type cmp struct {
		name  string
		build func(n *Netlist, a, b []Net) Net
		gold  func(a, b int64) bool
	}
	cases := []cmp{
		{"gt", func(n *Netlist, a, b []Net) Net { return n.CompareGT(a, b) }, func(a, b int64) bool { return a > b }},
		{"ge", func(n *Netlist, a, b []Net) Net { return n.CompareGE(a, b) }, func(a, b int64) bool { return a >= b }},
		{"eq", func(n *Netlist, a, b []Net) Net { return n.CompareEQ(a, b) }, func(a, b int64) bool { return a == b }},
	}
	for _, c := range cases {
		c := c
		eval := harness(t, 8, func(n *Netlist, a, b []Net) {
			n.Output("o", []Net{c.build(n, a, b)})
		})
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 300; i++ {
			a, b := r.Int63n(256), r.Int63n(256)
			want := int64(0)
			if c.gold(a, b) {
				want = 1
			}
			if got := eval(a, b); got != want {
				t.Fatalf("%s(%d,%d) = %d, want %d", c.name, a, b, got, want)
			}
		}
		// Equal operands corner.
		for _, v := range []int64{0, 1, 255} {
			want := int64(0)
			if c.gold(v, v) {
				want = 1
			}
			if got := eval(v, v); got != want {
				t.Fatalf("%s(%d,%d) = %d, want %d", c.name, v, v, got, want)
			}
		}
	}
}

func TestArrayMultiplierRandom(t *testing.T) {
	eval := harness(t, 8, func(n *Netlist, a, b []Net) {
		n.Output("o", n.ArrayMultiplier(a, b))
	})
	f := func(a, b uint8) bool {
		return eval(int64(a), int64(b)) == int64(uint8(a*b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMux2BusAndShift(t *testing.T) {
	n := New("t")
	a := n.Input("a", 8)
	b := n.Input("b", 8)
	s := n.Input("s", 1)
	n.Output("m", n.Mux2Bus(s[0], a, b))
	n.Output("shl", n.ShiftBus(a, true, 2))
	n.Output("shr", n.ShiftBus(a, false, 3))
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, want int64) {
		t.Helper()
		got, err := sim.ReadOutput(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	sim.SetInput("a", 0xA5)
	sim.SetInput("b", 0x3C)
	sim.SetInput("s", 1)
	sim.Propagate()
	check("m", 0xA5)
	check("shl", (0xA5<<2)&0xFF)
	check("shr", 0xA5>>3)
	sim.SetInput("s", 0)
	sim.Propagate()
	check("m", 0x3C)
}

func TestConstBus(t *testing.T) {
	n := New("t")
	n.Output("o", n.ConstBus(0x5A, 8))
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	sim.Propagate()
	v, _ := sim.ReadOutput("o")
	if v != 0x5A {
		t.Errorf("const = %#x", v)
	}
}

func TestRegisterEnableGatesSwitching(t *testing.T) {
	// The PM mechanism in miniature: a register that does not load does
	// not toggle, and downstream logic stays quiet.
	n := New("t")
	d := n.Input("d", 8)
	en := n.Input("en", 1)
	q := n.RegisterE(d, en[0])
	// Downstream combinational load: an adder fed by the register.
	sum, _ := n.RippleAdder(q, q, Zero)
	n.Output("o", sum)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetInput("d", 0)
	sim.SetInput("en", 1)
	sim.Step()
	sim.ResetStats()

	// Enabled: register follows toggling data -> activity.
	r := rand.New(rand.NewSource(3))
	sim.SetInput("en", 1)
	for i := 0; i < 50; i++ {
		sim.SetInput("d", r.Int63n(256))
		sim.Step()
	}
	enabledPower := sim.AveragePower()

	// Disabled: same toggling data, but the register holds.
	sim.ResetStats()
	sim.SetInput("en", 0)
	for i := 0; i < 50; i++ {
		sim.SetInput("d", r.Int63n(256))
		sim.Step()
	}
	disabledPower := sim.AveragePower()

	if disabledPower >= enabledPower/2 {
		t.Errorf("gating saved too little: enabled %.1f, disabled %.1f", enabledPower, disabledPower)
	}
	if enabledPower == 0 {
		t.Error("no activity measured when enabled")
	}
}

func TestSequentialAccumulator(t *testing.T) {
	// q <= q + 1 each cycle: after k steps the register reads k.
	n := New("acc")
	q := n.FeedbackRegister(8, func(q []Net) []Net {
		s, _ := n.RippleAdder(q, n.ConstBus(1, 8), Zero)
		return s
	})
	n.Output("q", q)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	sim.Propagate()
	for i := 0; i < 10; i++ {
		sim.Step()
	}
	v, _ := sim.ReadOutput("q")
	if v != 10 {
		t.Errorf("accumulator = %d, want 10", v)
	}
}

func TestDrivePanics(t *testing.T) {
	n := New("t")
	a := n.Input("a", 1)
	ph := n.PlaceholderBus(1)
	n.Drive(ph[0], a[0])
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double drive accepted")
			}
		}()
		n.Drive(ph[0], a[0])
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("driving constant accepted")
			}
		}()
		n.Drive(Zero, a[0])
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("driving input accepted")
			}
		}()
		n.Drive(a[0], ph[0])
	}()
}

func TestAreaAndCounts(t *testing.T) {
	n := New("t")
	a := n.Input("a", 8)
	b := n.Input("b", 8)
	sum, _ := n.RippleAdder(a, b, Zero)
	q := n.RegisterE(sum, One)
	n.Output("o", q)
	if n.NumDFFs() != 8 {
		t.Errorf("dffs = %d, want 8", n.NumDFFs())
	}
	// Adder: 8 FAs x 5 gates = 40 gates; + 8 DFFs.
	if n.NumGates() != 48 {
		t.Errorf("gates = %d, want 48", n.NumGates())
	}
	// Area: 8 FAs x (2 xor*1.5 + 2 and + or) + 8 dffe*6 = 8*6 + 48 = 96.
	if got := n.Area(); got != 96 {
		t.Errorf("area = %v, want 96", got)
	}
}

func TestGateKindStrings(t *testing.T) {
	for _, k := range []GateKind{GInv, GBuf, GAnd, GOr, GNand, GNor, GXor, GMux2, GDffE} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if GateKind(99).String() == "" {
		t.Error("unknown kind should print")
	}
}

func TestSimulatorErrors(t *testing.T) {
	n := New("t")
	n.Input("a", 4)
	sim, err := NewSimulator(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("zz", 1); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := sim.ReadOutput("zz"); err == nil {
		t.Error("unknown output accepted")
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := New("t")
	// or gate feeding itself through the placeholder pattern is not
	// expressible; instead construct a 2-gate cycle via FeedbackComb
	// misuse: inv(x) where x is inv's own output cannot be built with
	// the builder API (outputs are always fresh nets), so the only
	// cycles possible go through patched netlists. Simulate one by
	// hand-editing the gate list.
	a := n.Input("a", 1)
	out := n.AddGate(GAnd, a[0], a[0])
	// Force a cycle: make the AND read its own output.
	n.gates[len(n.gates)-1].Ins[1] = out
	if _, err := NewSimulator(n); err == nil {
		t.Error("combinational cycle not detected")
	}
}

func TestNandNorGates(t *testing.T) {
	n := New("t")
	a := n.Input("a", 1)
	b := n.Input("b", 1)
	n.Output("nand", []Net{n.AddGate(GNand, a[0], b[0])})
	n.Output("nor", []Net{n.AddGate(GNor, a[0], b[0])})
	sim, _ := NewSimulator(n)
	cases := []struct{ a, b, nand, nor int64 }{
		{0, 0, 1, 1}, {0, 1, 1, 0}, {1, 0, 1, 0}, {1, 1, 0, 0},
	}
	for _, c := range cases {
		sim.SetInput("a", c.a)
		sim.SetInput("b", c.b)
		sim.Propagate()
		if v, _ := sim.ReadOutput("nand"); v != c.nand {
			t.Errorf("nand(%d,%d) = %d", c.a, c.b, v)
		}
		if v, _ := sim.ReadOutput("nor"); v != c.nor {
			t.Errorf("nor(%d,%d) = %d", c.a, c.b, v)
		}
	}
}

func TestAndOrTrees(t *testing.T) {
	n := New("t")
	a := n.Input("a", 3)
	n.Output("or", []Net{n.OrTree(a...)})
	n.Output("emptyOr", []Net{n.OrTree()})
	sim, _ := NewSimulator(n)
	sim.SetInput("a", 6)
	sim.Propagate()
	if v, _ := sim.ReadOutput("or"); v != 1 {
		t.Error("or tree wrong")
	}
	if v, _ := sim.ReadOutput("emptyOr"); v != 0 {
		t.Error("empty or tree should be 0")
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	n := New("t")
	n.Input("a", 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate input accepted")
			}
		}()
		n.Input("a", 1)
	}()
	n.Output("o", []Net{Zero})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate output accepted")
			}
		}()
		n.Output("o", []Net{One})
	}()
}

func TestBadGateArityPanics(t *testing.T) {
	n := New("t")
	defer func() {
		if recover() == nil {
			t.Error("bad arity accepted")
		}
	}()
	n.AddGate(GAnd, Zero)
}
