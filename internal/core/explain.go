package core

import (
	"fmt"
	"strings"

	"repro/internal/cdfg"
)

// MuxVerdict classifies the outcome of the power management attempt on one
// multiplexor.
type MuxVerdict int

const (
	// VerdictManaged: the mux was selected for power management.
	VerdictManaged MuxVerdict = iota
	// VerdictNothingToGate: both data-input cones are empty after the
	// sharing/fanout exclusions — there is nothing to shut down.
	VerdictNothingToGate
	// VerdictNoSlack: serializing control before data violates the
	// throughput constraint (ASAP would exceed ALAP for some node).
	VerdictNoSlack
)

// String names the verdict.
func (v MuxVerdict) String() string {
	switch v {
	case VerdictManaged:
		return "managed"
	case VerdictNothingToGate:
		return "nothing to gate"
	case VerdictNoSlack:
		return "insufficient slack"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// MuxReport explains the outcome for one multiplexor at one budget.
type MuxReport struct {
	// Mux is the multiplexor node.
	Mux cdfg.NodeID
	// Verdict classifies the outcome.
	Verdict MuxVerdict
	// GatedTrue/GatedFalse are the (potential or committed) gated sets.
	GatedTrue, GatedFalse []cdfg.NodeID
	// Detail is a human-readable explanation.
	Detail string
}

// Explain reports the selection loop of the power management pass that
// Schedule keeps: for every multiplexor (in that pass's order) it states
// whether it was managed and, if not, why — the diagnostic a designer
// needs to decide between relaxing the throughput constraint and
// restructuring the behavior (paper §IV). Fixed Resources are not
// applied: the report stops before the final scheduling.
func Explain(g *cdfg.Graph, cfg Config) ([]MuxReport, error) {
	if cfg.Budget < 1 {
		return nil, fmt.Errorf("core: budget %d must be positive", cfg.Budget)
	}
	p, err := selectPass(g, cfg, true)
	if err != nil {
		return nil, err
	}
	defer p.release()
	work := p.res.graph
	reports := p.res.reports
	for i := range reports {
		rep := &reports[i]
		sel := work.Node(work.Node(rep.Mux).Args[cdfg.MuxSel]).Name
		switch rep.Verdict {
		case VerdictNothingToGate:
			rep.Detail = describeEmptyCones(work, rep.Mux)
		case VerdictNoSlack:
			rep.Detail = fmt.Sprintf(
				"scheduling %d gated ops after select %q needs more than %d steps",
				rep.gatedCount(), sel, cfg.Budget)
		case VerdictManaged:
			rep.Detail = fmt.Sprintf("select %q computed first; %d ops shut down when unused",
				sel, rep.gatedCount())
		}
	}
	return reports, nil
}

func (r MuxReport) gatedCount() int { return len(r.GatedTrue) + len(r.GatedFalse) }

// describeEmptyCones explains which exclusion emptied the gated sets.
func describeEmptyCones(g *cdfg.Graph, m cdfg.NodeID) string {
	mux := g.Node(m)
	coneSel := g.TransitiveFanin(mux.Args[cdfg.MuxSel])
	coneT := g.TransitiveFanin(mux.Args[cdfg.MuxTrue])
	coneF := g.TransitiveFanin(mux.Args[cdfg.MuxFalse])
	var reasons []string
	opsIn := func(cone cdfg.NodeSet) int {
		n := 0
		for id := range cone {
			if id != m && g.Node(id).IsOp() {
				n++
			}
		}
		return n
	}
	if opsIn(coneT) == 0 && opsIn(coneF) == 0 {
		return "both data inputs are primary values or constants"
	}
	shared := coneT.Intersect(coneF)
	sharedOps := 0
	for id := range shared {
		if g.Node(id).IsOp() {
			sharedOps++
		}
	}
	if sharedOps > 0 {
		reasons = append(reasons, fmt.Sprintf("%d ops feed both branches", sharedOps))
	}
	ctrlShared := 0
	for id := range coneSel {
		if g.Node(id).IsOp() && (coneT.Contains(id) || coneF.Contains(id)) {
			ctrlShared++
		}
	}
	if ctrlShared > 0 {
		reasons = append(reasons, fmt.Sprintf("%d ops also feed the select", ctrlShared))
	}
	if len(reasons) == 0 {
		reasons = append(reasons, "every branch op has fanout escaping the cone")
	}
	return strings.Join(reasons, "; ")
}

// FormatReports renders the explanation as text.
func FormatReports(g *cdfg.Graph, reports []MuxReport) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "mux %-8s %-18s %s\n", g.Node(r.Mux).Name, r.Verdict, r.Detail)
	}
	return b.String()
}
