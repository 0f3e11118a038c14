package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newCluster(t *testing.T, self string, peers ...string) *Cluster {
	t.Helper()
	c, err := New(self, peers)
	if err != nil {
		t.Fatalf("New(%q, %v): %v", self, peers, err)
	}
	return c
}

func TestRoutableIDRoundTrip(t *testing.T) {
	id := RoutableID("ab12cd34", "j-0042")
	node, local, ok := SplitID(id)
	if !ok || node != "ab12cd34" || local != "j-0042" {
		t.Fatalf("SplitID(%q) = %q, %q, %v", id, node, local, ok)
	}
	// Plain single-node ids pass through unprefixed.
	if node, local, ok := SplitID("j-0042"); ok || node != "" || local != "j-0042" {
		t.Fatalf("SplitID(plain) = %q, %q, %v", node, local, ok)
	}
	// Local ids containing the separator keep their tail intact.
	if _, local, _ := SplitID(RoutableID("n", "a~b")); local != "a~b" {
		t.Fatalf("nested separator: local = %q, want a~b", local)
	}
}

func TestOwnerDeterministicAcrossNodes(t *testing.T) {
	urls := []string{"http://h1:1", "http://h2:2", "http://h3:3"}
	// Each node builds its own view (with itself as self, peers in a
	// different order); all must agree on every fingerprint's owner.
	views := []*Cluster{
		newCluster(t, urls[0], urls[1], urls[2]),
		newCluster(t, urls[1], urls[2], urls[0]),
		newCluster(t, urls[2], urls[0], urls[1]),
	}
	for i := 0; i < 100; i++ {
		fp := fmt.Sprintf("v3:%064d", i)
		want := views[0].Owner(fp).ID
		for _, v := range views[1:] {
			if got := v.Owner(fp).ID; got != want {
				t.Fatalf("fp %q: node %s says owner %s, node %s says %s",
					fp, views[0].Self().ID, want, v.Self().ID, got)
			}
		}
	}
}

func TestOwnerDistribution(t *testing.T) {
	c := newCluster(t, "http://h1:1", "http://h2:2", "http://h3:3", "http://h4:4")
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[c.Owner(fmt.Sprintf("fp-%d", i)).ID]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 nodes own anything: %v", len(counts), counts)
	}
	for id, got := range counts {
		// Rendezvous over sha256 is near-uniform; allow ±40% of fair share.
		if fair := n / 4; got < fair*6/10 || got > fair*14/10 {
			t.Errorf("node %s owns %d of %d, outside [%d,%d]", id, got, n, fair*6/10, fair*14/10)
		}
	}
}

func TestOwnerMinimalReassignmentOnNodeLoss(t *testing.T) {
	full := newCluster(t, "http://h1:1", "http://h2:2", "http://h3:3")
	lostID := NodeID("http://h3:3")
	reduced := newCluster(t, "http://h1:1", "http://h2:2")
	for i := 0; i < 500; i++ {
		fp := fmt.Sprintf("fp-%d", i)
		ranked := full.Ranked(fp)
		if owner := full.Owner(fp); owner != ranked[0] {
			t.Fatalf("fp %q: Owner %s is not Ranked[0] %s", fp, owner.ID, ranked[0].ID)
		}
		before := full.Owner(fp).ID
		after := reduced.Owner(fp).ID
		// Rendezvous property: only the lost node's keys move.
		if before != lostID && after != before {
			t.Fatalf("fp %q moved %s -> %s though %s is still alive", fp, before, after, before)
		}
		// Failover lands where a membership without the dead node routes.
		if before == lostID && ranked[1].ID != after {
			t.Fatalf("fp %q: failover goes to %s, the reduced membership owner is %s", fp, ranked[1].ID, after)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", nil); err == nil {
		t.Fatal("empty self must error")
	}
	if _, err := New("http://h1:1", []string{"not a url"}); err == nil {
		t.Fatal("relative peer URL must error")
	}
	// Self listed among peers (the usual -peers wiring) is deduped.
	c := newCluster(t, "http://h1:1/", "http://h1:1", "http://h2:2")
	if got := len(c.Nodes()); got != 2 {
		t.Fatalf("nodes = %d, want 2 (self deduped)", got)
	}
	if got := newCluster(t, "http://h1:1").Ranked("fp"); len(got) != 1 || got[0].URL != "http://h1:1" {
		t.Fatalf("one-node cluster ranks %v, want only itself", got)
	}
	if _, ok := c.Lookup(NodeID("http://h2:2")); !ok {
		t.Fatal("Lookup of a member failed")
	}
	if _, ok := c.Lookup("ffffffff"); ok {
		t.Fatal("Lookup of a stranger succeeded")
	}
}

func TestProxySubmitRelaysAndCounts(t *testing.T) {
	var gotForward string
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotForward = r.Header.Get(ForwardHeader)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"echo":%q}`, string(body))
	}))
	defer owner.Close()
	c := newCluster(t, "http://self:1", owner.URL)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", nil)
	node, _ := c.Lookup(NodeID(owner.URL))
	if err := c.ProxySubmit(rec, req, node, []byte(`{"a":1}`)); err != nil {
		t.Fatalf("ProxySubmit: %v", err)
	}
	if gotForward != c.Self().ID {
		t.Fatalf("forward header = %q, want self id %q", gotForward, c.Self().ID)
	}
	if rec.Code != http.StatusAccepted || !strings.Contains(rec.Body.String(), `{\"a\":1}`) {
		t.Fatalf("relayed %d %q", rec.Code, rec.Body.String())
	}
	if st := c.Stats(); st.ProxiedSubmits != 1 {
		t.Fatalf("stats = %+v, want 1 proxied submit", st)
	}
}

func TestProxySubmitErrorsLeaveResponseUntouched(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer down.Close()
	c := newCluster(t, "http://self:1", down.URL)
	node, _ := c.Lookup(NodeID(down.URL))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps", nil)
	if err := c.ProxySubmit(rec, req, node, []byte("{}")); err == nil {
		t.Fatal("5xx from owner must surface as error for local fallback")
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("response written despite error: %q", rec.Body.String())
	}
	// Unreachable owner: same contract.
	gone := Node{ID: "deadbeef", URL: "http://127.0.0.1:1"}
	if err := c.ProxySubmit(rec, req, gone, []byte("{}")); err == nil {
		t.Fatal("unreachable owner must error")
	}
	if st := c.Stats(); st.ProxiedSubmits != 0 {
		t.Fatalf("failed proxies counted: %+v", st)
	}
}

func TestProxyJobStreamsQueryAndBody(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery != "from=7" {
			t.Errorf("query = %q, want from=7", r.URL.RawQuery)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		for i := 0; i < 3; i++ {
			fmt.Fprintf(w, `{"seq":%d}`+"\n", 7+i)
			fl.Flush()
		}
	}))
	defer upstream.Close()
	c := newCluster(t, "http://self:1", upstream.URL)
	node, _ := c.Lookup(NodeID(upstream.URL))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/x~1/events?from=7", nil)
	if err := c.ProxyJob(rec, req, node); err != nil {
		t.Fatalf("ProxyJob: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q not relayed", ct)
	}
	if lines := strings.Count(rec.Body.String(), "\n"); lines != 3 {
		t.Fatalf("streamed %d lines, want 3: %q", lines, rec.Body.String())
	}
	if st := c.Stats(); st.ProxiedJobs != 1 {
		t.Fatalf("stats = %+v, want 1 proxied job", st)
	}
}

func TestStatsCounters(t *testing.T) {
	c := newCluster(t, "http://h1:1")
	c.CountFallback()
	c.CountForwarded()
	c.CountForwarded()
	if st := c.Stats(); st.Fallbacks != 1 || st.Forwarded != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
