package client

// The HTTP core of the SDK: request plumbing, retry-aware transport, and
// the typed endpoint methods. Streaming lives in stream.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Client talks to a pmsynthd deployment — one daemon (New) or every
// replica of a cluster (NewMulti). It is safe for concurrent use.
//
// With multiple base URLs the client fails over: a transport error or a
// 5xx answer rotates to the next replica, and the next attempt goes
// there immediately (no backoff sleep) until every replica has been
// tried once in the round. Every endpoint this applies to is idempotent
// by construction — submissions are content-addressed (a resubmission
// dedupes onto the live job or the stored table) and reads are reads —
// so failing over can duplicate at most work, never results. A request
// that exhausts its retries returns the last *APIError any replica
// answered with; a transport error surfaces only when none answered.
type Client struct {
	bases      []string
	cur        atomic.Int64 // rotation cursor; index = cur % len(bases)
	hc         *http.Client
	maxRetries int
	maxWait    time.Duration
	userAgent  string
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default client has no timeout —
// deadlines belong to the caller's context, and event streams are
// long-lived by design.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries configures the retry budget for backpressured (429),
// temporarily unavailable (503) and transport-failed requests:
// maxRetries additional attempts, each waiting the server's Retry-After
// hint (or an exponential fallback) capped at maxWait. WithRetries(0, 0)
// disables retrying. The default is 4 retries capped at 15s.
func WithRetries(maxRetries int, maxWait time.Duration) Option {
	return func(c *Client) { c.maxRetries, c.maxWait = maxRetries, maxWait }
}

// WithUserAgent sets the User-Agent header on every request.
func WithUserAgent(ua string) Option {
	return func(c *Client) { c.userAgent = ua }
}

// New returns a client for the pmsynthd at baseURL, e.g.
// "http://127.0.0.1:8357".
func New(baseURL string, opts ...Option) *Client {
	return NewMulti([]string{baseURL}, opts...)
}

// NewMulti returns a client that spreads over every listed replica of a
// pmsynthd cluster, failing over between them on connection failures and
// 5xx answers. Order is the preference order: requests go to the first
// URL until it misbehaves.
func NewMulti(baseURLs []string, opts ...Option) *Client {
	c := &Client{
		hc:         &http.Client{},
		maxRetries: 4,
		maxWait:    15 * time.Second,
		userAgent:  "pmsynth-client/1",
	}
	for _, u := range baseURLs {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			c.bases = append(c.bases, u)
		}
	}
	if len(c.bases) == 0 {
		c.bases = []string{""} // degenerate, like New("")
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// pick returns the current base URL and the cursor it was read at — the
// token rotate needs so concurrent failures advance the cursor once, not
// once per in-flight request.
func (c *Client) pick() (string, int64) {
	i := c.cur.Load()
	return c.bases[int(i%int64(len(c.bases)))], i
}

// rotate advances to the next replica if no concurrent caller already
// has.
func (c *Client) rotate(from int64) {
	if len(c.bases) > 1 {
		c.cur.CompareAndSwap(from, from+1)
	}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's backpressure hint, when present (429).
	RetryAfter time.Duration
	// TraceID is the server-side telemetry trace id of the failed
	// request (the X-Pmsynthd-Trace header), for correlating the
	// failure with server logs and /debug/traces.
	TraceID string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("pmsynthd: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Temporary reports whether retrying the identical request can succeed.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// do runs one JSON request with the retry policy. Every endpoint routed
// through it is content-addressed or read-only (resubmitting is answered
// by dedup or cache, never by duplicated work), so retrying is safe; the
// one non-idempotent endpoint, job cancel, bypasses do (see CancelJob).
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	_, err := c.doTrace(ctx, method, path, in, out)
	return err
}

// doTrace is do plus the request's server-side trace id (the
// X-Pmsynthd-Trace header of the attempt that produced the outcome);
// empty when the server sent none.
func (c *Client) doTrace(ctx context.Context, method, path string, in, out interface{}) (string, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return "", fmt.Errorf("client: encode request: %w", err)
		}
	}
	hops := 0
	var answered *APIError // the last replica answer, for the final error
	for attempt := 0; ; attempt++ {
		trace, apiErr, err := c.once(ctx, method, path, body, out)
		if err == nil && apiErr == nil {
			return trace, nil
		}
		if apiErr != nil {
			answered = apiErr
		}
		// A replica that cannot be reached or answers 5xx triggers
		// failover: once rotated away from it, the retry goes to the next
		// replica immediately — sleeping helps a backpressured server,
		// not a dead one — until the whole ring has been tried this
		// round. (once already rotated the cursor.)
		failover := err != nil || apiErr.Status >= 500
		// Transport errors, failovers and retryable statuses consume the
		// budget; definitive refusals (4xx other than 429) return
		// immediately. A 5xx is only worth retrying with somewhere else
		// to go (or a 503's explicit shed hint).
		retryable := err != nil || apiErr.Temporary() || (failover && len(c.bases) > 1)
		if !retryable {
			return trace, apiErr
		}
		if attempt >= c.maxRetries {
			// Over several replicas the last attempt may have hit a dead
			// one; any replica's answer says more than its transport
			// error (a survivor's 502 is how SweepAndWait learns its job
			// was lost). The transport error surfaces only when no
			// replica answered, or when the caller's context ended.
			if err == nil || (answered != nil && ctx.Err() == nil) {
				return answered.TraceID, answered
			}
			return trace, err
		}
		wait := c.backoff(attempt)
		if apiErr != nil && apiErr.RetryAfter > 0 {
			wait = apiErr.RetryAfter
		}
		if failover && hops < len(c.bases)-1 {
			hops++
			wait = 0
		} else {
			hops = 0
		}
		if wait > c.maxWait {
			wait = c.maxWait
		}
		if err := sleepCtx(ctx, wait); err != nil {
			return trace, err
		}
	}
}

// once runs a single HTTP attempt against the current replica, returning
// the response's trace id header alongside the outcome. A non-2xx
// response returns (trace, apiErr, nil); a transport failure returns
// ("", nil, err). Failures that indict the replica rather than the
// request — unreachable, or any 5xx — rotate the cursor so the next
// attempt (by this or any concurrent caller) lands elsewhere.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out interface{}) (string, *APIError, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	base, cursor := c.pick()
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return "", nil, fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", c.userAgent)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.rotate(cursor)
		return "", nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		c.rotate(cursor)
	}
	trace := resp.Header.Get("X-Pmsynthd-Trace")
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return trace, nil, fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode >= 300 {
		return trace, newAPIError(resp, data), nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return trace, nil, fmt.Errorf("client: decode response (%s %s): %w", method, path, err)
		}
	}
	return trace, nil, nil
}

// newAPIError builds the typed error from a non-2xx response.
func newAPIError(resp *http.Response, data []byte) *APIError {
	apiErr := &APIError{
		Status:  resp.StatusCode,
		TraceID: resp.Header.Get("X-Pmsynthd-Trace"),
	}
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		apiErr.Message = eb.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(data))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// backoff is the fallback wait when the server sent no hint. The shift
// is capped so a large retry budget can never overflow into a negative
// (i.e. zero) wait and busy-loop against a down server; the result is
// always clamped to maxWait by the caller.
func (c *Client) backoff(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20 // 250ms << 20 ≈ 3 days — any sane maxWait clamps it
	}
	return 250 * time.Millisecond << attempt
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics fetches GET /metrics and parses the counter lines into a map.
// It reads the current replica only — metrics are per-node, so a
// cluster-wide view means one Metrics call per base URL with separate
// single-node clients.
func (c *Client) Metrics(ctx context.Context) (map[string]int64, error) {
	base, _ := c.pick()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("User-Agent", c.userAgent)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: read metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, newAPIError(resp, data)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out, nil
}

// Synthesize runs one configuration through POST /v1/synthesize.
func (c *Client) Synthesize(ctx context.Context, req SynthesizeRequest) (*SynthesizeResult, error) {
	var res SynthesizeResult
	trace, err := c.doTrace(ctx, http.MethodPost, "/v1/synthesize", req, &res)
	if err != nil {
		return nil, err
	}
	if res.Trace == "" {
		res.Trace = trace
	}
	return &res, nil
}

// Sweep submits a design-space sweep through POST /v1/sweep. The
// returned job may already be terminal — restored from the server's
// persistent store (Cached), or finished before the response was
// written. WaitJob works on any job, terminal or not: a terminal job's
// retained event log replays and the wait returns at once. SweepAndWait
// does both.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepJob, error) {
	var job SweepJob
	trace, err := c.doTrace(ctx, http.MethodPost, "/v1/sweep", req, &job)
	if err != nil {
		return nil, err
	}
	if job.Trace == "" {
		job.Trace = trace
	}
	return &job, nil
}

// Jobs lists all live jobs via GET /v1/jobs.
func (c *Client) Jobs(ctx context.Context) ([]JobInfo, error) {
	var out []JobInfo
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Job fetches one job's snapshot via GET /v1/jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (*JobInfo, error) {
	var info JobInfo
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// CancelJob cancels a pending or running job. Cancel is the one
// non-idempotent endpoint (a repeated cancel of a job the first attempt
// already finished answers 409), so it is sent exactly once — a
// transport error is surfaced rather than retried, and the caller can
// re-check the job's state with Job.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobInfo, error) {
	var info JobInfo
	body, err := json.Marshal(struct{}{})
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	_, apiErr, err := c.once(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", body, &info)
	if err != nil {
		return nil, err
	}
	if apiErr != nil {
		return nil, apiErr
	}
	return &info, nil
}

// JobTrace fetches a job's telemetry trace via GET /v1/jobs/{id}/trace:
// the span tree of the submission that started it — admission, compile,
// queue wait, and one span per flow pass and sweep point. A still-running
// job returns a partial forest. 404 means the job kept no trace id or the
// trace was evicted from the server's bounded retention ring.
func (c *Client) JobTrace(ctx context.Context, id string) (*Trace, error) {
	var tr Trace
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/trace", nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// JobResult fetches a result view of a finished sweep job.
func (c *Client) JobResult(ctx context.Context, id string, q ResultQuery) (*Result, error) {
	vals := url.Values{}
	if q.View != "" {
		vals.Set("view", q.View)
	}
	if q.Objective != "" {
		vals.Set("objective", q.Objective)
	}
	path := "/v1/jobs/" + url.PathEscape(id) + "/result"
	if len(vals) > 0 {
		path += "?" + vals.Encode()
	}
	var res Result
	if err := c.do(ctx, http.MethodGet, path, nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
