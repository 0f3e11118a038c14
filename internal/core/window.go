package core

import (
	"slices"

	"repro/internal/cdfg"
	"repro/internal/sched"
)

// passWindow is the PM pass's incremental feasibility test (paper Fig. 3
// steps 5-7). It keeps the ASAP/ALAP window of the work graph with every
// committed control edge and tests one batch of edges sel→top at a time.
//
// A batch only adds edges out of sel, so it can only raise ASAP on the
// tops and their descendants and only lower ALAP on sel and its
// ancestors; every other node keeps its times and stays feasible. A path
// through a new edge sel→top is the longest path into sel, top, and the
// longest path out of top, and neither end moves, so the batch is
// infeasible exactly when some top's new ASAP passes its committed ALAP.
// The test therefore propagates ASAP from the tops, checks ASAP <= ALAP on
// the nodes it raised, and a rejected batch restores them from the
// committed window. Only a committed batch propagates ALAP from sel.
//
// Each propagation is Dijkstra's algorithm on the change of a node's time:
// along an edge the change can only shrink by the edge's slack in the
// committed window, so the node with the largest pending change is final
// when popped. Every node is therefore expanded at most once per batch,
// and the work is proportional to the nodes whose times change. The result
// is the fixpoint a from-scratch sched.AnalyzeWindow computes.
//
// A batch closes a cycle exactly when it raises sel's own ASAP: every top
// is an operation of latency at least 1, so a path from a top back to sel
// pushes sel past its committed time, and without such a path nothing
// upstream of sel moves.
type passWindow struct {
	g *cdfg.Graph
	// asap and alap are the live window: the committed window plus the
	// pending batch's changes. base is the committed window.
	asap, alap sched.Times
	base       sched.Window
	// ctrlSuccs and ctrlPreds list every control edge per node: the
	// caller's, the committed batches', and the pending batch's last.
	ctrlSuccs, ctrlPreds [][]cdfg.NodeID
	// The pending batch: its select, its new tops in commit order, and
	// the nodes whose ASAP rose (the undo log of a rejected batch) or,
	// during commit, whose ALAP fell.
	sel             cdfg.NodeID
	pending         []cdfg.NodeID
	raised, lowered []cdfg.NodeID
	heap            changeHeap
	// edges lists the committed batches' edges in commit order: with the
	// caller's edges of g, they make the graph whose window pw keeps.
	edges []cdfg.ControlEdge
}

// reset starts pw over g, taking over w, the window of g under the budget:
// pw updates w's vectors in place from here on. Every buffer pw held
// before is reused.
func (pw *passWindow) reset(g *cdfg.Graph, w sched.Window) {
	n := g.NumNodes()
	pw.g = g
	pw.asap, pw.alap = w.ASAP, w.ALAP
	pw.base.ASAP = append(pw.base.ASAP[:0], w.ASAP...)
	pw.base.ALAP = append(pw.base.ALAP[:0], w.ALAP...)
	pw.ctrlSuccs = resetLists(pw.ctrlSuccs, n)
	pw.ctrlPreds = resetLists(pw.ctrlPreds, n)
	for _, e := range g.ControlEdges() {
		pw.ctrlSuccs[e.From] = append(pw.ctrlSuccs[e.From], e.To)
		pw.ctrlPreds[e.To] = append(pw.ctrlPreds[e.To], e.From)
	}
	pw.clearPending()
	pw.heap = pw.heap[:0]
	pw.edges = pw.edges[:0]
}

// resetLists returns n empty per-node lists, reusing the lists of l and
// their arrays.
func resetLists[E any](l [][]E, n int) [][]E {
	if cap(l) < n {
		l = append(l[:cap(l)], make([][]E, n-cap(l))...)
	}
	l = l[:n]
	for i := range l {
		l[i] = l[i][:0]
	}
	return l
}

// test adds the batch sel→tops (skipping edges the graph already has) and
// reports whether every node still satisfies ASAP <= ALAP. The batch stays
// pending until commit or rollback. A batch that closes a cycle is rolled
// back and reported as cdfg.ErrCycle.
func (pw *passWindow) test(sel cdfg.NodeID, tops []cdfg.NodeID) (bool, error) {
	pw.sel = sel
	for _, top := range tops {
		if !slices.Contains(pw.ctrlSuccs[sel], top) {
			pw.ctrlSuccs[sel] = append(pw.ctrlSuccs[sel], top)
			pw.ctrlPreds[top] = append(pw.ctrlPreds[top], sel)
			pw.pending = append(pw.pending, top)
		}
	}
	g, asap := pw.g, pw.asap
	for _, top := range pw.pending {
		pw.raise(top, asap[sel]+g.Node(top).Latency())
	}
	for len(pw.heap) > 0 {
		c := pw.heap.pop()
		if c.delta != asap[c.id]-pw.base.ASAP[c.id] {
			continue // superseded by a later raise
		}
		for _, succs := range [2][]cdfg.NodeID{g.Succs(c.id), pw.ctrlSuccs[c.id]} {
			for _, s := range succs {
				t := asap[c.id] + g.Node(s).Latency()
				if s == sel && t > asap[s] {
					pw.heap = pw.heap[:0]
					pw.rollback()
					return false, cdfg.ErrCycle
				}
				pw.raise(s, t)
			}
		}
	}
	for _, id := range pw.raised {
		if asap[id] > pw.alap[id] {
			return false, nil
		}
	}
	return true, nil
}

// raise lifts id's ASAP to t if that is later than its current time.
func (pw *passWindow) raise(id cdfg.NodeID, t int) {
	if t <= pw.asap[id] {
		return
	}
	if pw.asap[id] == pw.base.ASAP[id] {
		pw.raised = append(pw.raised, id)
	}
	pw.asap[id] = t
	pw.heap.push(change{delta: t - pw.base.ASAP[id], id: id})
}

// lower drops id's ALAP to t if that is earlier than its current time.
func (pw *passWindow) lower(id cdfg.NodeID, t int) {
	if t >= pw.alap[id] {
		return
	}
	if pw.alap[id] == pw.base.ALAP[id] {
		pw.lowered = append(pw.lowered, id)
	}
	pw.alap[id] = t
	pw.heap.push(change{delta: pw.base.ALAP[id] - t, id: id})
}

// commit makes the pending batch part of the committed window: it lowers
// ALAP from sel, keeps the new times, and appends the batch's edges to
// edges in batch order. pw.g itself is never written.
func (pw *passWindow) commit() {
	g, alap := pw.g, pw.alap
	for _, top := range pw.pending {
		pw.lower(pw.sel, alap[top]-g.Node(top).Latency())
	}
	for len(pw.heap) > 0 {
		c := pw.heap.pop()
		if c.delta != pw.base.ALAP[c.id]-alap[c.id] {
			continue // superseded by a later lowering
		}
		t := alap[c.id] - g.Node(c.id).Latency()
		for _, preds := range [2][]cdfg.NodeID{g.Preds(c.id), pw.ctrlPreds[c.id]} {
			for _, p := range preds {
				pw.lower(p, t)
			}
		}
	}
	for _, id := range pw.raised {
		pw.base.ASAP[id] = pw.asap[id]
	}
	for _, id := range pw.lowered {
		pw.base.ALAP[id] = alap[id]
	}
	for _, top := range pw.pending {
		pw.edges = append(pw.edges, cdfg.ControlEdge{From: pw.sel, To: top})
	}
	pw.clearPending()
}

// rollback restores the committed window and drops the pending edges.
func (pw *passWindow) rollback() {
	for _, id := range pw.raised {
		pw.asap[id] = pw.base.ASAP[id]
	}
	succs := pw.ctrlSuccs[pw.sel]
	pw.ctrlSuccs[pw.sel] = succs[:len(succs)-len(pw.pending)]
	for _, top := range pw.pending {
		preds := pw.ctrlPreds[top]
		pw.ctrlPreds[top] = preds[:len(preds)-1]
	}
	pw.clearPending()
}

func (pw *passWindow) clearPending() {
	pw.pending = pw.pending[:0]
	pw.raised = pw.raised[:0]
	pw.lowered = pw.lowered[:0]
}

// change is a pending propagation: id's time moved delta steps away from
// the committed window.
type change struct {
	delta int
	id    cdfg.NodeID
}

// changeHeap is a binary max-heap of changes by delta.
type changeHeap []change

func (h *changeHeap) push(c change) {
	q := append(*h, c)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].delta >= q[i].delta {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *changeHeap) pop() change {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(q) && q[l].delta > q[s].delta {
			s = l
		}
		if r < len(q) && q[r].delta > q[s].delta {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	*h = q
	return top
}
