package server_test

// The logging contract: at info the request and job paths write nothing,
// and at debug each request writes exactly one access line. A job's
// lifecycle is its event log, never a log line.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// syncBuffer is a bytes.Buffer the handlers may write to concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// sentRequest is one request sendLogged made, with the route, status and
// trace id its access line must carry.
type sentRequest struct {
	method, path, route string
	code                int
	trace               string
}

// sendLogged starts a server logging JSON at level, sends it a
// synthesize, a sweep waited to its terminal event, a job status read, a
// 404 and a trace listing, and returns what it logged once every
// handler has returned, the requests sent, and the listed traces.
func sendLogged(t *testing.T, level slog.Level) (string, []sentRequest, []telemetry.Snapshot) {
	t.Helper()
	var buf syncBuffer
	logger, err := telemetry.NewLogger(&buf, level, "json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, server.Config{Logger: logger})

	var sent []sentRequest
	send := func(method, path, route string, body interface{}, want int) []byte {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = postBody(t, body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, data)
		}
		sent = append(sent, sentRequest{method, path, route, resp.StatusCode, resp.Header.Get("X-Pmsynthd-Trace")})
		return data
	}

	send("POST", "/v1/synthesize", "POST /v1/synthesize",
		client.SynthesizeRequest{Source: absDiffSrc, Options: client.Options{Budget: 2}}, http.StatusOK)
	var job client.SweepJob
	data := send("POST", "/v1/sweep", "POST /v1/sweep",
		client.SweepRequest{Source: absDiffSrc, Spec: client.SweepSpec{BudgetMin: 2, BudgetMax: 3}}, http.StatusAccepted)
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	stream := send("GET", "/v1/jobs/"+job.ID+"/events", "GET /v1/jobs/{id}/events", nil, http.StatusOK)
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	var last client.Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != string(client.StateSucceeded) {
		t.Fatalf("sweep stream ended with %+v, want succeeded", last)
	}
	send("GET", "/v1/jobs/"+job.ID, "GET /v1/jobs/{id}", nil, http.StatusOK)
	send("GET", "/v1/jobs/j-does-not-exist", "GET /v1/jobs/{id}", nil, http.StatusNotFound)
	var traces []telemetry.Snapshot
	if err := json.Unmarshal(send("GET", "/debug/traces?n=100", "GET /debug/traces", nil, http.StatusOK), &traces); err != nil {
		t.Fatal(err)
	}

	ts.Close() // waits for every handler, so every line is written
	return buf.String(), sent, traces
}

// TestInfoLogsNoRequestOrJobLines: the default level writes nothing for
// requests or jobs, failed lookups included.
func TestInfoLogsNoRequestOrJobLines(t *testing.T) {
	out, _, _ := sendLogged(t, slog.LevelInfo)
	if out != "" {
		t.Fatalf("info-level log is not empty:\n%s", out)
	}
}

// TestDebugLogsOneAccessLinePerRequest: at debug every request writes
// exactly one access line, matching the request's route, status and
// X-Pmsynthd-Trace, its elapsed the root span's duration; nothing else
// is logged.
func TestDebugLogsOneAccessLinePerRequest(t *testing.T) {
	out, sent, traces := sendLogged(t, slog.LevelDebug)
	type accessLine struct {
		Msg     string `json:"msg"`
		Method  string `json:"method"`
		Path    string `json:"path"`
		Route   string `json:"route"`
		Code    int    `json:"code"`
		Elapsed int64  `json:"elapsed"`
		Trace   string `json:"trace"`
	}
	byTrace := make(map[string][]accessLine)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var l accessLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if l.Msg != "http request" {
			t.Errorf("unexpected %q line: %s", l.Msg, line)
			continue
		}
		byTrace[l.Trace] = append(byTrace[l.Trace], l)
	}
	if len(byTrace) != len(sent) {
		t.Errorf("access lines carry %d trace ids, want %d (one per request)", len(byTrace), len(sent))
	}
	for _, r := range sent {
		got := byTrace[r.trace]
		if len(got) != 1 {
			t.Errorf("%s %s: %d access lines under trace %q, want 1", r.method, r.path, len(got), r.trace)
			continue
		}
		l := got[0]
		path, _, _ := strings.Cut(r.path, "?")
		if l.Method != r.method || l.Path != path || l.Route != r.route || l.Code != r.code {
			t.Errorf("%s %s: access line %+v, want route %q code %d", r.method, r.path, l, r.route, r.code)
		}
	}

	synth := sent[0]
	var root *telemetry.SpanNode
	for _, tr := range traces {
		if tr.ID == synth.trace {
			if spans := findSpans(tr.Roots, synth.route); len(spans) == 1 {
				root = spans[0]
			}
		}
	}
	if root == nil {
		t.Fatalf("no %q root span under trace %q", synth.route, synth.trace)
	}
	if l := byTrace[synth.trace]; len(l) == 1 && l[0].Elapsed != root.DurationNs {
		t.Errorf("synthesize access line elapsed %d ns, root span %d ns", l[0].Elapsed, root.DurationNs)
	}
}
