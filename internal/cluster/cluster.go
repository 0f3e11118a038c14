package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Node is one member of the static peer set.
type Node struct {
	// ID is the short stable identifier derived from the advertised URL
	// (first 8 hex digits of its sha256). It prefixes routable job ids.
	ID string
	// URL is the node's advertised base URL, e.g. "http://10.0.0.3:8080".
	URL string
}

// IDSep separates the node prefix from the local job id in a routable
// job id. A tilde survives URL path segments untouched (a slash would
// split the {id} pattern match).
const IDSep = "~"

// ForwardHeader marks a proxied request. A node receiving a submission
// with this header serves it locally — it never re-forwards — so a
// routing disagreement (e.g. mid-reconfiguration) degrades to one extra
// hop, not a loop.
const ForwardHeader = "X-Pmsynthd-Forward"

// NodeID derives a node's identifier from its advertised URL.
func NodeID(rawURL string) string {
	sum := sha256.Sum256([]byte(rawURL))
	return hex.EncodeToString(sum[:])[:8]
}

// RoutableID prefixes a local job id with its node.
func RoutableID(nodeID, local string) string { return nodeID + IDSep + local }

// SplitID splits a routable job id into node prefix and local id.
// ok=false when the id carries no node prefix (plain single-node id).
func SplitID(id string) (nodeID, local string, ok bool) {
	i := strings.Index(id, IDSep)
	if i < 0 {
		return "", id, false
	}
	return id[:i], id[i+len(IDSep):], true
}

// Stats counts routing outcomes. Counters only ever increase.
type Stats struct {
	// ProxiedSubmits counts sweep submissions forwarded to a node ranked
	// ahead of this one.
	ProxiedSubmits int64
	// ProxiedJobs counts job/event requests proxied to another node.
	ProxiedJobs int64
	// Fallbacks counts ranked nodes a submission skipped because they
	// were unreachable or failing.
	Fallbacks int64
	// Forwarded counts submissions received with the forward header.
	Forwarded int64
}

// Cluster is the static peer set plus this node's place in it.
type Cluster struct {
	self  Node
	nodes []Node // sorted by ID, includes self
	byID  map[string]Node

	// hc performs proxied requests. No overall timeout: event streams
	// are long-lived and admission of a forwarded sweep legitimately
	// compiles before answering. The dial is bounded so a dead node
	// fails over quickly.
	hc *http.Client

	proxiedSubmits atomic.Int64
	proxiedJobs    atomic.Int64
	fallbacks      atomic.Int64
	forwarded      atomic.Int64
}

// New builds the cluster view for the node advertised at self. peers
// lists every member's base URL; self is added if absent. A nil or
// single-member peer set yields a degenerate cluster that owns
// everything locally.
func New(self string, peers []string) (*Cluster, error) {
	self = strings.TrimRight(self, "/")
	if self == "" {
		return nil, fmt.Errorf("cluster: self URL is empty")
	}
	if _, err := url.Parse(self); err != nil {
		return nil, fmt.Errorf("cluster: self URL: %w", err)
	}
	seen := map[string]bool{}
	urls := []string{self}
	seen[self] = true
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p == "" || seen[p] {
			continue
		}
		if u, err := url.Parse(p); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer URL %q is not absolute", p)
		}
		seen[p] = true
		urls = append(urls, p)
	}
	c := &Cluster{
		byID: make(map[string]Node, len(urls)),
		hc: &http.Client{Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 3 * time.Second}).DialContext,
			MaxIdleConnsPerHost: 4,
		}},
	}
	for _, u := range urls {
		n := Node{ID: NodeID(u), URL: u}
		if prev, dup := c.byID[n.ID]; dup {
			return nil, fmt.Errorf("cluster: node id collision between %q and %q", prev.URL, u)
		}
		c.byID[n.ID] = n
		c.nodes = append(c.nodes, n)
	}
	sort.Slice(c.nodes, func(i, j int) bool { return c.nodes[i].ID < c.nodes[j].ID })
	c.self = Node{ID: NodeID(self), URL: self}
	return c, nil
}

// Self is this node.
func (c *Cluster) Self() Node { return c.self }

// Nodes returns the full membership, sorted by ID.
func (c *Cluster) Nodes() []Node {
	out := make([]Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Lookup resolves a node id from a routable job id prefix.
func (c *Cluster) Lookup(nodeID string) (Node, bool) {
	n, ok := c.byID[nodeID]
	return n, ok
}

// Ranked orders the membership by rendezvous (highest-random-weight)
// score for fingerprint fp: every node scores sha256(fp "|" nodeID) and
// the highest score ranks first. Rendezvous needs no virtual-node ring,
// is trivially deterministic across nodes, and dropping a node leaves
// the relative order of the others untouched — so Ranked(fp)[1] is
// exactly the owner fp would have without Ranked(fp)[0]. That property
// is the failover rule: every node that finds the same ranked nodes
// unreachable sends the sweep to the same next one.
func (c *Cluster) Ranked(fp string) []Node {
	scores := make(map[string][sha256.Size]byte, len(c.nodes))
	out := make([]Node, len(c.nodes))
	for i, n := range c.nodes {
		scores[n.ID] = sha256.Sum256([]byte(fp + "|" + n.ID))
		out[i] = n
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := scores[out[i].ID], scores[out[j].ID]
		return bytes.Compare(a[:], b[:]) > 0
	})
	return out
}

// Owner maps a sweep fingerprint to the node responsible for executing
// it: the first node of its ranking.
func (c *Cluster) Owner(fp string) Node { return c.Ranked(fp)[0] }

// Stats snapshots the routing counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		ProxiedSubmits: c.proxiedSubmits.Load(),
		ProxiedJobs:    c.proxiedJobs.Load(),
		Fallbacks:      c.fallbacks.Load(),
		Forwarded:      c.forwarded.Load(),
	}
}

// CountFallback records a ranked node a submission skipped because it was
// unreachable or failing.
func (c *Cluster) CountFallback() { c.fallbacks.Add(1) }

// CountForwarded records a submission that arrived with ForwardHeader.
func (c *Cluster) CountForwarded() { c.forwarded.Add(1) }

// ProxySubmit forwards a sweep submission body to a ranked node and
// relays the response. It returns an error — without having written
// anything to w — when the node cannot be reached or answers with a
// 5xx, so the caller can try the next node of the ranking.
func (c *Cluster) ProxySubmit(w http.ResponseWriter, r *http.Request, node Node, body []byte) error {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, node.URL+r.URL.Path, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, c.self.ID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		// Read-and-discard so the connection is reusable, then let the
		// caller move down the ranking instead of relaying the failure.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("cluster: node %s answered %s", node.ID, resp.Status)
	}
	c.proxiedSubmits.Add(1)
	relay(w, resp)
	return nil
}

// ProxyJob transparently relays a job-scoped request (status, result,
// cancel, event stream) to the node that owns the job. The response is
// streamed with per-write flushing so NDJSON event streams flow through
// proxies in real time. Unreachable node → 502 handled by the caller.
func (c *Cluster) ProxyJob(w http.ResponseWriter, r *http.Request, node Node) error {
	u := node.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, r.Body)
	if err != nil {
		return err
	}
	req.Header.Set(ForwardHeader, c.self.ID)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.proxiedJobs.Add(1)
	relay(w, resp)
	return nil
}

// relay copies status, safe headers and the body from an upstream
// response, flushing after every chunk so streaming endpoints stay live.
func relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", "Cache-Control", "X-Pmsynthd-Node"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 16*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
