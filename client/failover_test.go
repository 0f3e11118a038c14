package client_test

// Stub-server tests of the SDK's cluster failover: base-URL rotation on
// connection failures and 5xx answers, NDJSON event-stream resume
// against a different replica, and the terminal APIError when every
// replica is down. Real-daemon cluster behavior (ranked routing and
// failover, node kills and partitions) is covered in
// internal/cluster/clustertest; these tests pin the client-side
// contract alone.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
)

// deadBase returns a base URL nothing listens on: connections are
// refused immediately.
func deadBase(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	l.Close()
	return base
}

func TestFailoverRotationOnConnectionRefused(t *testing.T) {
	var hits atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprint(w, `{"status":"ok","uptime":"1s"}`)
	}))
	defer live.Close()

	c := client.NewMulti([]string{deadBase(t), live.URL}, client.WithRetries(3, time.Second))
	for i := 0; i < 2; i++ {
		if _, err := c.Health(context.Background()); err != nil {
			t.Fatalf("Health %d: %v", i, err)
		}
	}
	// Both requests answered by the live replica; after the first
	// failover the cursor stays rotated, so the dead base is not retried.
	if got := hits.Load(); got != 2 {
		t.Fatalf("live replica served %d requests, want 2", got)
	}
}

func TestFailoverRotationOn503(t *testing.T) {
	var shedding atomic.Int64
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shedding.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"down for maintenance"}`, http.StatusServiceUnavailable)
	}))
	defer shedder.Close()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","uptime":"1s"}`)
	}))
	defer live.Close()

	c := client.NewMulti([]string{shedder.URL, live.URL}, client.WithRetries(2, time.Second))
	start := time.Now()
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	// The 503 must have rotated to the live replica immediately — no
	// Retry-After sleep when there is somewhere else to go.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("failover took %v; should not have slept the Retry-After", elapsed)
	}
	if got := shedding.Load(); got != 1 {
		t.Fatalf("shedding replica hit %d times, want 1", got)
	}
}

func TestAllReplicasDownSurfacesAPIError(t *testing.T) {
	mk503 := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"no capacity"}`, http.StatusServiceUnavailable)
		}))
	}
	a, b := mk503(), mk503()
	defer a.Close()
	defer b.Close()

	c := client.NewMulti([]string{a.URL, b.URL}, client.WithRetries(2, 10*time.Millisecond))
	_, err := c.Health(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError from all-replicas-down, got %v", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", apiErr.Status)
	}

	// Every replica unreachable: the transport error surfaces instead.
	dead := client.NewMulti([]string{deadBase(t), deadBase(t)}, client.WithRetries(2, 10*time.Millisecond))
	if _, err := dead.Health(context.Background()); err == nil || errors.As(err, &apiErr) {
		t.Fatalf("want transport error from unreachable replicas, got %v", err)
	}

	// One dead replica among answering ones: whichever replica the
	// retries end on, the survivors' answer surfaces, not the dead
	// node's transport error (SweepAndWait resubmits only on the 502).
	mk502 := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"proxy target unreachable"}`, http.StatusBadGateway)
		}))
	}
	c1, c2 := mk502(), mk502()
	defer c1.Close()
	defer c2.Close()
	ring := []string{deadBase(t), c1.URL, c2.URL}
	for start := range ring {
		bases := append(append([]string{}, ring[start:]...), ring[:start]...)
		mixed := client.NewMulti(bases, client.WithRetries(2, 10*time.Millisecond))
		_, err := mixed.Health(context.Background())
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
			t.Fatalf("start %d: want the 502 APIError, got %v", start, err)
		}
	}
}

func TestSingleBase5xxDoesNotRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"proxy target unreachable"}`, http.StatusBadGateway)
	}))
	defer srv.Close()
	c := client.New(srv.URL, client.WithRetries(3, 10*time.Millisecond))
	_, err := c.Health(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("want 502 APIError, got %v", err)
	}
	// 502 is not Temporary, and with one base there is nowhere to fail
	// over to: exactly one attempt.
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hit %d times, want 1 (5xx must not retry single-base)", got)
	}
}

// TestStreamResumeOnAnotherReplica kills the event stream mid-flight on
// replica A and asserts WaitJob resumes — by sequence number, against
// replica B — without losing or replaying events.
func TestStreamResumeOnAnotherReplica(t *testing.T) {
	const jobID = "aaaa~0123456789abcdef"
	event := func(seq int64, typ string, done int) string {
		return fmt.Sprintf(`{"seq":%d,"type":%q,"done":%d,"total":4}`+"\n", seq, typ, done)
	}
	var aStreams, bFrom atomic.Int64

	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/"+jobID+"/events" {
			t.Errorf("replica A got unexpected %s", r.URL.Path)
		}
		aStreams.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, event(1, "created", 0))
		fmt.Fprint(w, event(2, "started", 0))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // node dies mid-stream
	}))
	defer a.Close()

	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/" + jobID + "/events":
			var f int64
			fmt.Sscanf(r.URL.Query().Get("from"), "%d", &f)
			bFrom.Store(f)
			w.Header().Set("Content-Type", "application/x-ndjson")
			for seq := f + 1; seq <= 4; seq++ {
				typ, done := "progress", int(seq)
				if seq == 4 {
					typ, done = "succeeded", 4
				}
				fmt.Fprint(w, event(seq, typ, done))
			}
		case "/v1/jobs/" + jobID:
			fmt.Fprintf(w, `{"id":%q,"state":"succeeded","done":4,"total":4}`, jobID)
		default:
			t.Errorf("replica B got unexpected %s", r.URL.Path)
			http.NotFound(w, r)
		}
	}))
	defer b.Close()

	c := client.NewMulti([]string{a.URL, b.URL}, client.WithRetries(4, time.Second))
	var seqs []int64
	info, err := c.WaitJob(context.Background(), jobID, func(ev client.Event) {
		seqs = append(seqs, ev.Seq)
	})
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if info.State != client.StateSucceeded {
		t.Fatalf("state = %s, want succeeded", info.State)
	}
	want := []int64{1, 2, 3, 4}
	if len(seqs) != len(want) {
		t.Fatalf("event seqs = %v, want %v (no loss, no replay)", seqs, want)
	}
	for i, s := range seqs {
		if s != want[i] {
			t.Fatalf("event seqs = %v, want %v", seqs, want)
		}
	}
	if got := bFrom.Load(); got != 2 {
		t.Fatalf("replica B resumed from seq %d, want 2", got)
	}
	if got := aStreams.Load(); got != 1 {
		t.Fatalf("replica A streamed %d times, want 1 (resume must rotate away)", got)
	}
}
