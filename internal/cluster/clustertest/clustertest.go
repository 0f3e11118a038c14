// Package clustertest boots real multi-node pmsynthd clusters for
// fault-injection tests: N daemons — the same server.New the binary
// runs — on pre-allocated ephemeral-port listeners over one shared
// store directory, with seams to kill or partition individual nodes
// mid-run. Tests drive the cluster through the public HTTP API (the
// client SDK), so what passes here is what a real deployment does.
package clustertest

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
)

// Options parameterizes New.
type Options struct {
	// StoreDir is the shared persistent-store directory every node
	// mounts; empty means a fresh per-test temp dir.
	StoreDir string
	// Configure, when non-nil, adjusts node i's config before boot —
	// hooks, worker counts, TTLs. The harness owns SelfURL, Peers and
	// the StoreDir default; SelfURL and Peers set here are overwritten.
	Configure func(i int, cfg *server.Config)
}

// Node is one live daemon of a test cluster.
type Node struct {
	// URL is the node's advertised base URL; ID its cluster node id
	// (the prefix of the routable job ids it mints).
	URL string
	ID  string

	srv  *server.Server
	hs   *http.Server
	ln   net.Listener
	cut  atomic.Bool
	done chan struct{} // closed when the daemon has fully stopped
	kill sync.Once
}

// guard is the partition seam: while the node is cut, every inbound
// request's connection is severed without a response, exactly the shape
// a network partition presents to callers. The daemon itself keeps
// running — jobs progress, outbound proxying still works.
func (n *Node) guard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.cut.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

// Cluster is a set of live test daemons over one shared store.
type Cluster struct {
	Nodes    []*Node
	StoreDir string
	routing  *cluster.Cluster
}

// New boots an n-node cluster and registers its teardown on t. Every
// listener is allocated before any daemon starts, so each node boots
// already knowing the full peer list.
func New(t testing.TB, n int, opts Options) *Cluster {
	t.Helper()
	if n < 1 {
		t.Fatalf("clustertest: need at least one node, got %d", n)
	}
	storeDir := opts.StoreDir
	if storeDir == "" {
		storeDir = t.TempDir()
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("clustertest: listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	c := &Cluster{StoreDir: storeDir}
	for i := 0; i < n; i++ {
		cfg := server.Config{StoreDir: storeDir}
		if opts.Configure != nil {
			opts.Configure(i, &cfg)
		}
		cfg.SelfURL = urls[i]
		cfg.Peers = urls
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatalf("clustertest: node %d: %v", i, err)
		}
		node := &Node{
			URL:  urls[i],
			ID:   cluster.NodeID(urls[i]),
			srv:  srv,
			ln:   lns[i],
			done: make(chan struct{}),
		}
		node.hs = &http.Server{Handler: node.guard(srv.Handler())}
		go node.hs.Serve(node.ln)
		c.Nodes = append(c.Nodes, node)
	}
	routing, err := cluster.New(urls[0], urls)
	if err != nil {
		t.Fatalf("clustertest: routing view: %v", err)
	}
	c.routing = routing
	t.Cleanup(c.Close)
	return c
}

// URLs returns every node's base URL in boot order, dead or alive —
// the value a cluster-aware client takes.
func (c *Cluster) URLs() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.URL
	}
	return out
}

// Ranked returns the node indexes in fingerprint fp's routing order,
// dead or alive: the first owns fp, and each later node is where a
// submission lands once every node ranked ahead of it is unreachable.
func (c *Cluster) Ranked(fp string) []int {
	nodes := c.routing.Ranked(fp)
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = c.IndexByID(n.ID)
	}
	return out
}

// OwnerIndex returns the index of the node owning fingerprint fp: the
// first entry of Ranked.
func (c *Cluster) OwnerIndex(fp string) int { return c.Ranked(fp)[0] }

// IndexByID maps a node id — e.g. a routable job id's prefix — to its
// node index, or -1 when no node has that id.
func (c *Cluster) IndexByID(id string) int {
	for i, n := range c.Nodes {
		if n.ID == id {
			return i
		}
	}
	return -1
}

// KillNode crash-stops node i: the listener closes, every in-flight
// connection is severed, and the daemon's jobs are canceled — the
// failure the cluster's availability paths are built around. The
// daemon teardown runs asynchronously (a worker may be stalled in a
// test's SweepHook when the kill lands) and is joined by Close.
// Idempotent.
func (c *Cluster) KillNode(i int) {
	n := c.Nodes[i]
	n.kill.Do(func() {
		n.ln.Close()
		n.hs.Close()
		go func() {
			n.srv.Close()
			close(n.done)
		}()
	})
}

// PartitionNode cuts node i off from inbound traffic: requests to it
// are dropped connection-first, while the daemon keeps running. Undo
// with HealNode.
func (c *Cluster) PartitionNode(i int) { c.Nodes[i].cut.Store(true) }

// HealNode reconnects a partitioned node.
func (c *Cluster) HealNode(i int) { c.Nodes[i].cut.Store(false) }

// Close kills every remaining node and waits for all daemons to stop.
// Registered on the test by New; safe to call again.
func (c *Cluster) Close() {
	for i := range c.Nodes {
		c.KillNode(i)
	}
	for _, n := range c.Nodes {
		<-n.done
	}
}
