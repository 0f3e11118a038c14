package server

// The batch endpoint: POST /v1/batch accepts N sweep specs in one request
// and fans them out through the exact admission pipeline POST /v1/sweep
// uses — per-entry dedup, disk-store warm hits, bounded-queue
// backpressure — so a batch enjoys every collapse a stream of individual
// submissions would, in one round trip. Entries are admitted concurrently
// (the pipeline is built for racing admissions: identical entries may
// each compile, then converge on one job via the commit-time re-check),
// so a batch of distinct sources costs the slowest compile, not the sum.
//
// GET /v1/batch/{id} aggregates over the server's batch index — the job
// ids the submission actually returned, including jobs an entry deduped
// onto (which carry an earlier submission's group label). The jobs
// manager's group label records which jobs a batch created; the index
// records which jobs a batch refers to.

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"

	"repro"
	"repro/internal/jobs"
)

// maxBatchAdmitters bounds how many batch entries are admitted
// concurrently. Admission is compile/enumerate-bound; a small pool keeps
// one giant batch from monopolizing every core while still collapsing
// the per-entry latencies.
const maxBatchAdmitters = 8

// newBatchID returns a random batch identifier, prefixed so batch ids and
// job ids are never confusable in logs.
func newBatchID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: no entropy: " + err.Error())
	}
	return "b-" + hex.EncodeToString(b[:])
}

// handleBatch fans a list of sweep submissions through the admission
// pipeline. The response is always 200 with per-entry statuses: partial
// acceptance is the point of a batch — one shed or invalid entry must not
// discard the admissions that succeeded. A batch whose entries were all
// refused still reports per-entry statuses; clients retry the 429 entries
// after RetryAfterSeconds.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batchRequests.Add(1)
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Sweeps) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: sweeps must hold at least one entry")
		return
	}
	if len(req.Sweeps) > s.cfg.MaxBatchSweeps {
		writeError(w, http.StatusUnprocessableEntity,
			"batch holds %d sweeps, over the server limit %d", len(req.Sweeps), s.cfg.MaxBatchSweeps)
		return
	}

	id := newBatchID()
	items := make([]BatchItemResponse, len(req.Sweeps))

	// Admit concurrently through a bounded pool. Validation failures are
	// decided inline; everything else goes through admitSweep, which is
	// race-safe by design (racing identical entries converge on one job).
	// Identical entries *within* the batch (equal sweep fingerprints) are
	// collapsed before admission: only the first occurrence runs the
	// pipeline, and later ones dedupe onto its outcome after the pool
	// drains. The fingerprint index would converge them onto one job
	// anyway, but which entry got the 202 would then depend on goroutine
	// scheduling; pre-grouping makes the lowest index the deterministic
	// winner and skips the redundant admission work.
	sem := make(chan struct{}, maxBatchAdmitters)
	var wg sync.WaitGroup
	repIdx := make(map[string]int) // sweep fingerprint -> first entry index
	dupOf := make([]int, len(req.Sweeps))
	for i, sw := range req.Sweeps {
		item := &items[i]
		item.Index = i
		dupOf[i] = -1
		if sw.Source == "" {
			item.Status = http.StatusBadRequest
			item.Error = "missing source"
			continue
		}
		spec, err := sw.Spec.toSpec()
		if err != nil {
			item.Status = http.StatusBadRequest
			item.Error = "bad spec: " + err.Error()
			continue
		}
		s.clampWorkers(&spec)
		fp := pmsynth.SweepFingerprint(sw.Source, spec)
		if first, ok := repIdx[fp]; ok {
			dupOf[i] = first
			continue
		}
		repIdx[fp] = i
		wg.Add(1)
		sem <- struct{}{}
		go func(source string) {
			defer func() { <-sem; wg.Done() }()
			// Batch entries are never routed (there is no per-entry
			// response stream to proxy onto): they execute on the node
			// that received the batch. An entry racing a live execution
			// of the same fingerprint on another node runs a duplicate,
			// whose store Put is idempotent.
			out := s.admitSweep(r.Context(), source, spec, rtl{}, id)
			item.Status = out.status
			if out.status < 300 {
				sweep := out.resp
				item.Sweep = &sweep
			} else {
				item.Error = out.errMsg
			}
		}(sw.Source)
	}
	wg.Wait()

	// Resolve in-batch duplicates against their representative's outcome —
	// exactly what a standalone resubmission would have received: a dedup
	// join onto the representative's job when it was admitted, the same
	// refusal when it was refused.
	for i, first := range dupOf {
		if first < 0 {
			continue
		}
		if rep := items[first].Sweep; rep != nil {
			items[i].Status = http.StatusOK
			items[i].Sweep = &SweepCreatedResponse{
				ID: rep.ID, State: rep.State, Total: rep.Total,
				Fingerprint: rep.Fingerprint, Deduped: true, Trace: rep.Trace,
			}
		} else {
			items[i].Status = items[first].Status
			items[i].Error = items[first].Error
		}
	}

	resp := BatchCreatedResponse{ID: id, Items: items}
	anyShed := false
	var jobIDs []string
	seen := make(map[string]bool)
	for i := range items {
		switch {
		case items[i].Sweep != nil:
			resp.Accepted++
			if jid := items[i].Sweep.ID; !seen[jid] {
				seen[jid] = true
				jobIDs = append(jobIDs, jid)
			}
		default:
			resp.Rejected++
			if items[i].Status == http.StatusTooManyRequests {
				anyShed = true
			}
		}
	}
	if len(jobIDs) > 0 {
		s.registerBatch(id, jobIDs)
	}
	if anyShed {
		resp.RetryAfterSeconds = s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterSeconds))
	}
	writeJSON(w, http.StatusOK, resp)
}

// registerBatch commits a batch's member-job index entry, pruning
// batches whose jobs have all been TTL-collected so the index is bounded
// by the live-job horizon, not the all-time batch count.
func (s *Server) registerBatch(id string, jobIDs []string) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	for bid, members := range s.batches {
		alive := false
		for _, jid := range members {
			if _, ok := s.jobs.Get(jid); ok {
				alive = true
				break
			}
		}
		if !alive {
			delete(s.batches, bid)
		}
	}
	s.batches[id] = jobIDs
}

// handleBatchStatus aggregates a batch's member jobs — created by the
// batch or deduped onto — from the batch index. A batch expires once all
// its member jobs are TTL-collected, the same lifetime the individual
// job endpoints have.
func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.batchMu.Lock()
	members := s.batches[id]
	s.batchMu.Unlock()
	var infos []jobs.Info
	for _, jid := range members {
		if j, ok := s.jobs.Get(jid); ok {
			infos = append(infos, j.Snapshot())
		}
	}
	if len(infos) == 0 {
		if members != nil {
			s.batchMu.Lock()
			delete(s.batches, id) // every member expired
			s.batchMu.Unlock()
		}
		writeError(w, http.StatusNotFound, "no such batch %q", id)
		return
	}
	resp := BatchStatusResponse{
		ID:     id,
		Done:   true,
		Counts: make(map[jobs.State]int),
		Jobs:   infos,
	}
	for _, info := range infos {
		resp.Counts[info.State]++
		if !info.State.Terminal() {
			resp.Done = false
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
