package client

// Wire types of the pmsynthd API, which pmsynthd itself decodes and
// encodes. Enum-valued fields (mux orders, resource classes) travel as
// their canonical string names, never as Go constant numbering.

import "time"

// Options configures one synthesis configuration.
type Options struct {
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

// Row is the Table II style summary of one synthesis. Its fields are
// those of pmsynth.Row, in the same order, so the server converts a
// library row with client.Row(row); that conversion stops compiling the
// moment the two lists differ. Untagged, its JSON keys are the field
// names.
type Row struct {
	Circuit      string
	Steps        int
	PMMuxes      int
	AreaIncrease float64
	// Expected executions per computation, under equiprobable selects.
	Mux, Comp, Add, Sub, Mul float64
	// PowerReductionPct is the datapath power saving in percent.
	PowerReductionPct float64
}

// SynthesizeRequest is the body of POST /v1/synthesize.
type SynthesizeRequest struct {
	// Source is the Silage-style behavioral description.
	Source string `json:"source"`
	// Options configures the run.
	Options Options `json:"options"`
	// Emit lists extra artifacts to return: "vhdl", "verilog".
	Emit []string `json:"emit,omitempty"`
}

// SynthesizeResult is the response of POST /v1/synthesize.
type SynthesizeResult struct {
	// Fingerprint is the content-addressed request identity.
	Fingerprint string `json:"fingerprint"`
	// Cached reports whether the result was served without starting a
	// job: an identical live job or the persistent store answered.
	Cached bool `json:"cached"`
	// Trace is the server-side telemetry trace id of this request,
	// from the response body or the X-Pmsynthd-Trace header.
	Trace string `json:"trace,omitempty"`
	// Row is the Table II style summary.
	Row Row `json:"row"`
	// VHDL and Verilog carry the requested RTL artifacts.
	VHDL    string `json:"vhdl,omitempty"`
	Verilog string `json:"verilog,omitempty"`
}

// SweepSpec enumerates a design-space sweep as the cross product of its
// axes, as pmsynth.SweepSpec does. Zero-valued axes default to a single
// neutral entry.
type SweepSpec struct {
	// Budgets lists explicit control-step budgets; when nil the
	// inclusive BudgetMin..BudgetMax range applies, and when that is
	// empty too the design's critical path is the single budget.
	Budgets   []int `json:"budgets,omitempty"`
	BudgetMin int   `json:"budgetMin,omitempty"`
	BudgetMax int   `json:"budgetMax,omitempty"`
	// IIs lists pipeline initiation intervals.
	IIs []int `json:"iis,omitempty"`
	// Orders lists mux processing orders by canonical name.
	Orders []string `json:"orders,omitempty"`
	// Resources lists per-class unit budget maps.
	Resources []map[string]int `json:"resources,omitempty"`
	// Workers asks for an evaluation pool size; the server clamps it and
	// it never changes results.
	Workers int `json:"workers,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Source string    `json:"source"`
	Spec   SweepSpec `json:"spec"`
}

// SweepJob is the response of a sweep submission.
type SweepJob struct {
	// ID names the job for the jobs endpoints.
	ID string `json:"id"`
	// State is the job state at response time; a Cached response is
	// already succeeded.
	State JobState `json:"state"`
	// Total is the number of enumerated configurations.
	Total int `json:"total"`
	// Fingerprint is the content-addressed sweep identity.
	Fingerprint string `json:"fingerprint"`
	// Workers is the effective evaluation pool size after the server
	// clamp (zero on deduped and cached responses: the live job's pool
	// was fixed at its own admission). It never affects results, only
	// wall-clock time.
	Workers int `json:"workers,omitempty"`
	// Deduped reports the submission joined an identical live job.
	Deduped bool `json:"deduped,omitempty"`
	// Cached reports the result was restored from the server's
	// persistent store with no recomputation.
	Cached bool `json:"cached,omitempty"`
	// Trace is the telemetry trace id the job's spans are recorded
	// under — pass it to Client.JobTrace. On deduped responses it is
	// the original submission's trace (the one running the job).
	Trace string `json:"trace,omitempty"`
}

// JobState is a job lifecycle state.
type JobState string

// The job lifecycle states.
const (
	StatePending   JobState = "pending"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// JobInfo is a point-in-time snapshot of a job.
type JobInfo struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Node is the cluster node the job lives on (the same id that
	// prefixes ID); empty against a single-node server.
	Node string `json:"node,omitempty"`
	// Trace is the telemetry trace id the job's spans are recorded
	// under: the handle for Client.JobTrace and for correlating server
	// logs. Empty when the submitter did not trace the job.
	Trace    string    `json:"trace,omitempty"`
	State    JobState  `json:"state"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	Done     int       `json:"done"`
	Total    int       `json:"total"`
	Err      string    `json:"err,omitempty"`
}

// Event is one entry of a job's ordered event log. Seq strictly
// increases, and progress events carry a strictly increasing Done. The
// server retains only the most recent progress events, so sequence
// numbers can skip where older ticks were coalesced away; Done is a
// high-water mark, so a stream still never regresses.
type Event struct {
	Seq   int64     `json:"seq"`
	Time  time.Time `json:"time"`
	Type  string    `json:"type"` // created|started|progress|succeeded|failed|canceled
	Done  int       `json:"done"`
	Total int       `json:"total"`
	Err   string    `json:"err,omitempty"`
}

// Point is one sweep configuration in a result view.
type Point struct {
	// Index is the point's enumeration index.
	Index int `json:"index"`
	// Options is the configuration.
	Options Options `json:"options"`
	// Row is the summary (nil when Err is set).
	Row *Row `json:"row,omitempty"`
	// Err records a per-configuration failure.
	Err string `json:"err,omitempty"`
}

// ResultQuery selects a result view.
type ResultQuery struct {
	// View is "best" (default), "pareto" or "table".
	View string
	// Objective applies to the best view: "power" (default), "area" or
	// "steps".
	Objective string
}

// Result is the response of GET /v1/jobs/{id}/result.
type Result struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	View  string   `json:"view"`
	// Best is set for view=best.
	Best *Point `json:"best,omitempty"`
	// Pareto is set for view=pareto.
	Pareto []Point `json:"pareto,omitempty"`
	// Table is set for view=table.
	Table string `json:"table,omitempty"`
}

// Health is the response of GET /healthz.
type Health struct {
	Status string    `json:"status"`
	Uptime string    `json:"uptime"`
	Time   time.Time `json:"time"`
}

// TraceAttr is one key/value annotation on a trace span.
type TraceAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceSpan is one span of a server-side trace, with children nested.
type TraceSpan struct {
	ID         int64        `json:"id"`
	Parent     int64        `json:"parent,omitempty"`
	Name       string       `json:"name"`
	Start      time.Time    `json:"start"`
	DurationNs int64        `json:"durationNs"`
	Attrs      []TraceAttr  `json:"attrs,omitempty"`
	Children   []*TraceSpan `json:"children,omitempty"`
}

// Duration is DurationNs as a time.Duration.
func (s *TraceSpan) Duration() time.Duration { return time.Duration(s.DurationNs) }

// Attr returns the value of the named attribute, or "".
func (s *TraceSpan) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is the response of GET /v1/jobs/{id}/trace: the finished spans
// of the job's submission assembled into trees by parent links. A trace
// fetched while the job is still running is a partial forest — spans
// whose parent has not finished yet surface as extra roots.
type Trace struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	// Spans counts the recorded spans; Dropped counts spans discarded
	// beyond the server's per-trace retention bound.
	Spans   int          `json:"spans"`
	Dropped int64        `json:"dropped,omitempty"`
	Roots   []*TraceSpan `json:"roots"`
}
