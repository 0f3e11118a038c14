// Package cluster makes pmsynthd multi-node: a static peer set with
// consistent-hash (rendezvous) routing on sweep fingerprints, routable
// job identifiers, and the HTTP proxy plumbing that lets any node
// answer for any job.
//
// The model is deliberately minimal — no membership protocol, no
// consensus, no leases. The peer set is configuration (-peers); result
// convergence comes from the content-addressed shared store every node
// mounts, and execution dedup from the ranking itself: each fingerprint
// orders the membership by rendezvous score, and a node receiving a
// sweep hands it to the first node ranked ahead of itself that answers,
// executing locally only when the walk reaches its own entry. Every
// node that finds the same ranked nodes unreachable therefore picks the
// same executor, whose job manager joins the racing submissions onto
// one job. Routing is an optimization, not a
// correctness requirement: determinism guarantees the bytes are
// identical no matter which node runs the flow.
//
// Job identifiers become routable in cluster mode: a job created on
// node n is presented as "<nodeID>~<localID>", and every /v1/jobs/{id}
// endpoint on every node resolves the prefix — locally when it names
// the serving node, by transparent proxy (including NDJSON event
// streams) otherwise.
//
// See DESIGN.md ("Cluster") for the full routing and failover rule and
// the failure-mode table, and internal/cluster/clustertest for the
// fault-injection harness the cluster tests boot real daemons with.
package cluster
