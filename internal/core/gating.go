package core

import (
	"slices"

	"repro/internal/cdfg"
	"repro/internal/scratch"
)

// Per-node flags of one gated-set derivation: membership in the fanin cones
// of the mux's select, true and false inputs, and the closure verdict.
const (
	inSel uint8 = 1 << iota
	inTrue
	inFalse
	closed

	coneBits = inSel | inTrue | inFalse
)

// gateDeriver derives the maximal gateable sets of one mux at a time (paper
// Fig. 3 step 3 plus the fanout exclusions of §III), reusing its buffers
// from one mux to the next.
//
// A node is gateable on branch b when:
//   - it lies in the transitive fanin of input b,
//   - it is not in the fanin of the select (it helps compute the
//     condition) nor in the fanin of the other data input (it is needed
//     either way),
//   - every dataflow path from it reaches only gated nodes, ending at
//     input b of m ("no fanout to other nodes besides the current
//     multiplexor"),
//   - it is a datapath operation (IO and wiring have no input latches).
//
// Wire nodes (constant shifts) are transparent: they may sit between gated
// operations, but are never members of the gated set themselves.
type gateDeriver struct {
	g *cdfg.Graph
	// flags holds one derivation's per-node bits; it is all zero between
	// derivations.
	flags []uint8
	// sets[0] and sets[1] are the gated operations of the true and false
	// branch in ascending ID order; tops lists the true branch's tops,
	// then the false branch's, each ascending. All three are valid until
	// the next derive.
	sets [2][]cdfg.NodeID
	tops []cdfg.NodeID
}

// reset sets d up over g, reusing its buffers.
func (d *gateDeriver) reset(g *cdfg.Graph) {
	d.g = g
	d.flags = scratch.Grow(d.flags, g.NumNodes())
	clear(d.flags)
}

// derive computes the gated sets of mux m and their tops. Node IDs are a
// dataflow topological order (cdfg rejects forward argument references),
// so one descending scan from m's highest argument settles every node:
// when the scan reaches a node, all its consumers have been seen, so its
// cone bits are complete and each successor's closure verdict is known.
// The closure keeps exactly the candidates whose every successor is m or a
// kept node, the same greatest fixpoint an iterative pruning reaches.
func (d *gateDeriver) derive(m cdfg.NodeID) {
	g, flags := d.g, d.flags
	args := g.Node(m).Args
	sel, t, f := args[cdfg.MuxSel], args[cdfg.MuxTrue], args[cdfg.MuxFalse]
	flags[sel] |= inSel
	flags[t] |= inTrue
	flags[f] |= inFalse
	hi := max(sel, t, f)
	for id := hi; id >= 0; id-- {
		fl := flags[id]
		if fl == 0 {
			continue
		}
		n := g.Node(id)
		for _, a := range n.Args {
			flags[a] |= fl
		}
		// Candidates lie in exactly one data cone: not the select's, not
		// the other input's.
		if fl != inTrue && fl != inFalse {
			continue
		}
		if !n.IsOp() && n.Class() != cdfg.ClassWire {
			continue
		}
		keep := true
		for _, s := range g.Succs(id) {
			if s != m && flags[s]&closed == 0 {
				keep = false
				break
			}
		}
		if keep {
			flags[id] |= closed
		}
	}

	d.sets[0], d.sets[1] = d.sets[0][:0], d.sets[1][:0]
	for id := cdfg.NodeID(0); id <= hi; id++ {
		if d.gated(id) {
			b := 0
			if flags[id]&inFalse != 0 {
				b = 1
			}
			d.sets[b] = append(d.sets[b], id)
		}
	}
	d.tops = d.tops[:0]
	for _, set := range d.sets {
		for _, id := range set {
			if d.isTop(id) {
				d.tops = append(d.tops, id)
			}
		}
	}
	clear(flags[:hi+1])
}

// gated reports whether id is a gated operation of the current derivation.
func (d *gateDeriver) gated(id cdfg.NodeID) bool {
	return d.flags[id]&closed != 0 && d.g.Node(id).IsOp()
}

// isTop reports whether the gated operation id has no gated predecessor in
// its own branch, looking through transparent wires (as topsOf does).
func (d *gateDeriver) isTop(id cdfg.NodeID) bool {
	branch := d.flags[id] & coneBits
	for _, p := range d.g.Preds(id) {
		for d.g.Node(p).Class() == cdfg.ClassWire {
			p = d.g.Node(p).Args[0]
		}
		if d.gated(p) && d.flags[p]&coneBits == branch {
			return false
		}
	}
	return true
}

func (d *gateDeriver) empty() bool { return len(d.sets[0]) == 0 && len(d.sets[1]) == 0 }

// topsOf returns the members of set with no member predecessor (looking
// through transparent wires): the "top nodes" that receive the control
// edges. The relaxation path and internal/optimal call it on reduced sets.
func topsOf(g *cdfg.Graph, set cdfg.NodeSet) []cdfg.NodeID {
	var tops []cdfg.NodeID
	for _, id := range set.Sorted() {
		isTop := true
		for _, p := range g.Preds(id) {
			for !set.Contains(p) && g.Node(p).Class() == cdfg.ClassWire {
				p = g.Node(p).Args[0]
			}
			if set.Contains(p) {
				isTop = false
				break
			}
		}
		if isTop {
			tops = append(tops, id)
		}
	}
	return tops
}

// BranchCandidate is one mux branch with a non-empty maximal gateable set:
// the unit of shut-down the paper's pass (and any exact baseline) decides
// over. The set is the paper Fig. 3 step 3 cone after the §III fanout
// exclusions, successor-closed through transparent wires.
type BranchCandidate struct {
	// Mux is the multiplexor whose branch this is.
	Mux cdfg.NodeID
	// Sel is the mux's select driver (the guard source).
	Sel cdfg.NodeID
	// WhenTrue is true for the select=1 branch, false for the select=0
	// branch.
	WhenTrue bool
	// Members are the gateable operations in ascending node-ID order.
	Members []cdfg.NodeID
}

// BranchCandidates enumerates every non-empty gateable branch of g in a
// deterministic order: mux ID ascending, true branch before false. The sets
// depend only on dataflow edges, so the result is identical across clones
// of one behavior regardless of inserted control edges.
func BranchCandidates(g *cdfg.Graph) []BranchCandidate {
	var out []BranchCandidate
	d := new(gateDeriver)
	d.reset(g)
	for _, m := range g.Muxes() {
		d.derive(m)
		sel := g.Node(m).Args[cdfg.MuxSel]
		for b, set := range d.sets {
			if len(set) > 0 {
				out = append(out, BranchCandidate{Mux: m, Sel: sel, WhenTrue: b == 0, Members: slices.Clone(set)})
			}
		}
	}
	return out
}

// GatedTops returns the members of set with no gated predecessor (looking
// through transparent wires): the nodes that receive serializing control
// edges from the select driver.
func GatedTops(g *cdfg.Graph, set cdfg.NodeSet) []cdfg.NodeID {
	return topsOf(g, set)
}
