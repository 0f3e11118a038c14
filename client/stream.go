package client

// Event streaming: following a job's ordered NDJSON event log live, and
// the wait helpers built on it. The stream resumes by sequence number, so
// a dropped connection never loses or replays events.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
)

// StopStreaming, returned by a StreamEvents callback, ends the stream
// early with a nil error.
var StopStreaming = errors.New("client: stop streaming")

// StreamEvents follows a job's event log via GET /v1/jobs/{id}/events,
// invoking fn for every event with Seq > from, in order, live until the
// job finishes, the callback returns an error, or ctx is canceled. A
// callback error other than StopStreaming is returned as-is.
//
// The stream is a single connection; for restart-proof waiting with
// automatic resume, use WaitJob.
func (c *Client) StreamEvents(ctx context.Context, id string, from int64, fn func(Event) error) error {
	path := fmt.Sprintf("/v1/jobs/%s/events?from=%d", url.PathEscape(id), from)
	base, cursor := c.pick()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	req.Header.Set("User-Agent", c.userAgent)
	resp, err := c.hc.Do(req)
	if err != nil {
		// Rotate so the resume (WaitJob re-invokes with the last seen
		// sequence number) lands on another replica, which either owns
		// the job or proxies the stream to the node that does.
		c.rotate(cursor)
		return fmt.Errorf("client: stream events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= 500 {
			c.rotate(cursor)
		}
		data, _ := bufio.NewReader(resp.Body).ReadBytes(0)
		return newAPIError(resp, data)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("client: bad event line %q: %w", line, err)
		}
		if err := fn(ev); err != nil {
			if errors.Is(err, StopStreaming) {
				return nil
			}
			return err
		}
	}
	if err := sc.Err(); err != nil {
		// Surface the context's cancellation over the transport's view
		// of the dropped connection.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The stream died mid-flight — the serving node likely went
		// down. Rotate so the resume picks another replica.
		c.rotate(cursor)
		return fmt.Errorf("client: stream events: %w", err)
	}
	return nil
}

// WaitJob blocks until the job reaches a terminal state, following the
// event stream and resuming it (by sequence number) across dropped
// connections. A non-nil onEvent observes every event seen, in order.
// The returned snapshot is terminal; WaitJob itself does not treat a
// failed or canceled job as an error — inspect State and Err.
func (c *Client) WaitJob(ctx context.Context, id string, onEvent func(Event)) (*JobInfo, error) {
	var last int64
	for {
		terminal := false
		err := c.StreamEvents(ctx, id, last, func(ev Event) error {
			last = ev.Seq
			if onEvent != nil {
				onEvent(ev)
			}
			if JobState(ev.Type).Terminal() {
				terminal = true
			}
			return nil
		})
		if err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && !apiErr.Temporary() {
				return nil, err // e.g. 404: the job is gone
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Transport hiccup: back off briefly and resume after the
			// last seen sequence number.
			if serr := sleepCtx(ctx, c.backoff(0)); serr != nil {
				return nil, serr
			}
			continue
		}
		// The server ends the stream when the job is terminal; confirm
		// with a snapshot (also covers streams ended by event-log
		// coalescing edge cases).
		info, ierr := c.Job(ctx, id)
		if ierr != nil {
			return nil, ierr
		}
		if terminal || info.State.Terminal() {
			return info, nil
		}
		if serr := sleepCtx(ctx, c.backoff(0)); serr != nil {
			return nil, serr
		}
	}
}

// SweepAndWait submits a sweep and waits for its terminal snapshot,
// streaming every job's event log through onEvent along the way. Deduped
// submissions join the live job's stream; a job already terminal at
// submission — store-restored (Cached), or finished before the response
// was written — replays its retained log (a restored job's is created,
// succeeded) and returns at once. The error is non-nil only for
// submission or transport failures — a failed sweep returns its terminal
// snapshot.
//
// Against a cluster, SweepAndWait is the end-to-end failover primitive:
// when the job is lost mid-wait — its node died, so every surviving
// replica answers 404 (the job is gone) or 502 (its node is
// unreachable) — the sweep is resubmitted. Submissions are
// content-addressed, so a resubmission is idempotent: a survivor either
// restores the finished table from the shared store or starts the one
// replacement execution, and the wait resumes on the new job.
func (c *Client) SweepAndWait(ctx context.Context, req SweepRequest, onEvent func(Event)) (*SweepJob, *JobInfo, error) {
	for attempt := 0; ; attempt++ {
		job, err := c.Sweep(ctx, req)
		if err != nil {
			return nil, nil, err
		}
		info, err := c.WaitJob(ctx, job.ID, onEvent)
		if err != nil {
			if jobLost(err) && attempt < c.maxRetries {
				if serr := sleepCtx(ctx, c.backoff(0)); serr != nil {
					return job, nil, serr
				}
				continue
			}
			return job, nil, err
		}
		return job, info, nil
	}
}

// jobLost reports whether err means the awaited job cannot be reached on
// any replica — 404 after its node's state died with it, or 502 from
// survivors proxying toward an unreachable node — the two terminal
// shapes of a mid-execution node failure.
func jobLost(err error) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.Status == http.StatusNotFound || apiErr.Status == http.StatusBadGateway
}
