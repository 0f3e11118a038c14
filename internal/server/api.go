package server

// Wire types of the pmsynthd HTTP/JSON API, and their translation to the
// public pmsynth request types. Enum-valued fields (mux orders, resource
// classes) travel as their canonical string names so clients never depend
// on Go constant numbering.

import (
	"fmt"
	"sort"
	"time"

	"repro"
	"repro/internal/cdfg"
	"repro/internal/jobs"
)

// OptionsRequest mirrors pmsynth.Options.
type OptionsRequest struct {
	// Budget is the control-step budget; it must be at least the
	// design's critical path.
	Budget int `json:"budget"`
	// II is the pipeline initiation interval; 0 means no pipelining.
	II int `json:"ii,omitempty"`
	// Order is the mux processing order by name: "outputs-first"
	// (default), "inputs-first" or "greedy-weight".
	Order string `json:"order,omitempty"`
	// Resources fixes per-class unit budgets by class name ("mux",
	// "comp", "add", "sub", "mul"); empty lets the scheduler minimize.
	Resources map[string]int `json:"resources,omitempty"`
}

// SynthesizeRequest is the body of POST /v1/synthesize.
type SynthesizeRequest struct {
	// Source is the Silage-style behavioral description.
	Source string `json:"source"`
	// Options configures the run.
	Options OptionsRequest `json:"options"`
	// Emit lists extra artifacts to return: "vhdl", "verilog".
	Emit []string `json:"emit,omitempty"`
}

// SynthesizeResponse is the body of a successful synthesis.
type SynthesizeResponse struct {
	// Fingerprint is the content-addressed request identity.
	Fingerprint string `json:"fingerprint"`
	// Cached reports whether the response was served without starting
	// a job: an identical live job or the persistent store answered.
	Cached bool `json:"cached"`
	// Trace is the telemetry trace id of this request (also in the
	// X-Pmsynthd-Trace response header); empty when tracing is off.
	Trace string `json:"trace,omitempty"`
	// Row is the Table II style summary.
	Row pmsynth.Row `json:"row"`
	// VHDL and Verilog carry the requested RTL artifacts.
	VHDL    string `json:"vhdl,omitempty"`
	Verilog string `json:"verilog,omitempty"`
}

// SweepSpecRequest mirrors pmsynth.SweepSpec (Workers bounds the per-job
// evaluation pool; it never changes results).
type SweepSpecRequest struct {
	Budgets   []int            `json:"budgets,omitempty"`
	BudgetMin int              `json:"budgetMin,omitempty"`
	BudgetMax int              `json:"budgetMax,omitempty"`
	IIs       []int            `json:"iis,omitempty"`
	Orders    []string         `json:"orders,omitempty"`
	Resources []map[string]int `json:"resources,omitempty"`
	Workers   int              `json:"workers,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Source string           `json:"source"`
	Spec   SweepSpecRequest `json:"spec"`
}

// SweepCreatedResponse is the body of a successful sweep submission.
type SweepCreatedResponse struct {
	// ID names the job for the /v1/jobs endpoints.
	ID string `json:"id"`
	// State is the job state at response time.
	State jobs.State `json:"state"`
	// Total is the number of enumerated configurations.
	Total int `json:"total"`
	// Fingerprint is the content-addressed sweep identity.
	Fingerprint string `json:"fingerprint"`
	// Workers is the effective flow worker count the job will run with,
	// after the server clamp (omitted on deduped responses — the live
	// job's worker count was fixed at its own admission). Workers never
	// affects results, only wall-clock time.
	Workers int `json:"workers,omitempty"`
	// Deduped reports that an identical live job already existed and
	// was returned instead of starting a new one.
	Deduped bool `json:"deduped,omitempty"`
	// Cached reports that the result was restored from the persistent
	// store: the job is already succeeded and its result views are
	// immediately readable, with no recompilation or evaluation.
	Cached bool `json:"cached,omitempty"`
	// Trace is the telemetry trace id the job's spans are recorded
	// under — the handle for GET /v1/jobs/{id}/trace. On deduped
	// responses it is the original submission's trace (the one that
	// actually runs the job), not this request's.
	Trace string `json:"trace,omitempty"`
}

// PointResponse is one sweep point in result views.
type PointResponse struct {
	// Index is the point's enumeration index (the deterministic
	// tie-break order of Best).
	Index int `json:"index"`
	// Options is the configuration.
	Options OptionsRequest `json:"options"`
	// Row is the summary (omitted when Err is set).
	Row *pmsynth.Row `json:"row,omitempty"`
	// Err records a per-configuration failure.
	Err string `json:"err,omitempty"`
}

// ResultResponse is the body of GET /v1/jobs/{id}/result.
type ResultResponse struct {
	ID    string     `json:"id"`
	State jobs.State `json:"state"`
	View  string     `json:"view"`
	// Best is set for view=best.
	Best *PointResponse `json:"best,omitempty"`
	// Pareto is set for view=pareto.
	Pareto []PointResponse `json:"pareto,omitempty"`
	// Table is set for view=table.
	Table string `json:"table,omitempty"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	Status string    `json:"status"`
	Uptime string    `json:"uptime"`
	Time   time.Time `json:"time"`
}

// orderNames maps wire names to mux orders; built from the canonical
// String forms so the two can never drift.
var orderNames = map[string]pmsynth.Order{
	pmsynth.OrderOutputsFirst.String(): pmsynth.OrderOutputsFirst,
	pmsynth.OrderInputsFirst.String():  pmsynth.OrderInputsFirst,
	pmsynth.OrderGreedyWeight.String(): pmsynth.OrderGreedyWeight,
}

// parseOrder resolves a wire order name ("" means the default).
func parseOrder(name string) (pmsynth.Order, error) {
	if name == "" {
		return pmsynth.OrderOutputsFirst, nil
	}
	if o, ok := orderNames[name]; ok {
		return o, nil
	}
	valid := make([]string, 0, len(orderNames))
	for n := range orderNames {
		valid = append(valid, n)
	}
	sort.Strings(valid)
	return 0, fmt.Errorf("unknown order %q (valid: %v)", name, valid)
}

// classNames maps wire names to resource classes.
var classNames = map[string]cdfg.Class{
	cdfg.ClassMux.String():  cdfg.ClassMux,
	cdfg.ClassComp.String(): cdfg.ClassComp,
	cdfg.ClassAdd.String():  cdfg.ClassAdd,
	cdfg.ClassSub.String():  cdfg.ClassSub,
	cdfg.ClassMul.String():  cdfg.ClassMul,
}

// parseResources resolves a wire resource map; nil stays nil ("minimize").
func parseResources(res map[string]int) (map[cdfg.Class]int, error) {
	if len(res) == 0 {
		return nil, nil
	}
	out := make(map[cdfg.Class]int, len(res))
	for name, n := range res {
		c, ok := classNames[name]
		if !ok {
			return nil, fmt.Errorf("unknown resource class %q (valid: mux, comp, add, sub, mul)", name)
		}
		if n < 1 {
			return nil, fmt.Errorf("resource %q budget %d: must be >= 1", name, n)
		}
		out[c] = n
	}
	return out, nil
}

// toOptions translates a wire options value.
func (o OptionsRequest) toOptions() (pmsynth.Options, error) {
	order, err := parseOrder(o.Order)
	if err != nil {
		return pmsynth.Options{}, err
	}
	res, err := parseResources(o.Resources)
	if err != nil {
		return pmsynth.Options{}, err
	}
	return pmsynth.Options{
		Budget:    o.Budget,
		II:        o.II,
		Order:     order,
		Resources: res,
	}, nil
}

// fromOptions translates back for result views.
func fromOptions(opt pmsynth.Options) OptionsRequest {
	out := OptionsRequest{
		Budget: opt.Budget,
		II:     opt.II,
		Order:  opt.Order.String(),
	}
	if len(opt.Resources) > 0 {
		out.Resources = make(map[string]int, len(opt.Resources))
		for c, n := range opt.Resources {
			out.Resources[c.String()] = n
		}
	}
	return out
}

// toSpec translates a wire sweep spec.
func (s SweepSpecRequest) toSpec() (pmsynth.SweepSpec, error) {
	spec := pmsynth.SweepSpec{
		Budgets:   s.Budgets,
		BudgetMin: s.BudgetMin,
		BudgetMax: s.BudgetMax,
		IIs:       s.IIs,
		Workers:   s.Workers,
	}
	for _, name := range s.Orders {
		o, err := parseOrder(name)
		if err != nil {
			return pmsynth.SweepSpec{}, err
		}
		spec.Orders = append(spec.Orders, o)
	}
	for _, res := range s.Resources {
		r, err := parseResources(res)
		if err != nil {
			return pmsynth.SweepSpec{}, err
		}
		spec.Resources = append(spec.Resources, r)
	}
	return spec, nil
}

// toPoint projects a sweep point into its wire form.
func toPoint(index int, p *pmsynth.SweepPoint) PointResponse {
	out := PointResponse{Index: index, Options: fromOptions(p.Options)}
	if p.Err != nil {
		out.Err = p.Err.Error()
	} else {
		row := p.Row
		out.Row = &row
	}
	return out
}
