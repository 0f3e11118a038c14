// Package jobs is the asynchronous job manager of the pmsynthd serving
// layer: long-running work (design-space sweeps) becomes a trackable job
// with a lifecycle state machine, per-job progress counters, an ordered
// event log that clients can stream, cancellation, and TTL-based garbage
// collection of finished jobs.
//
// Lifecycle:
//
//	pending ──► running ──► succeeded
//	    │           │  ╲──► failed
//	    ╰───────────┴────► canceled
//
// Jobs run on a fixed pool of worker goroutines draining a bounded
// pending queue: Submit never blocks and never parks a goroutine per
// queued job — it either enqueues (the job waits in the pending state
// costing one queue slot, not a stack) or sheds the submission with
// ErrQueueFull, which is the manager's backpressure signal to the
// serving layer. SubmitDone registers a job that is already succeeded
// (the serving layer's store restores). A job carries a name and the
// submitter's telemetry trace id; nothing else labels or groups it.
//
// Every job is submitted under a dedup key, and the manager's one table
// indexes jobs by id and by key under one mutex. A key is live while its
// job is pending, running or succeeded: Submit and SubmitDone under a
// live key join that job instead of creating one, and Lookup answers it
// without submitting. A failed or canceled job answers no key, so the
// next submission under it runs again and takes the key over. The TTL
// janitor deletes a collected job's key with the job, so the key index
// never outlives the table. The mutex is held only over map operations,
// job-state reads and queue admission, never over a Func.
//
// Each job retains its lifecycle events and the most recent 256 progress
// events; older progress ticks coalesce away.
//
// Snapshots, events and states are the SDK's wire types
// (client.JobInfo, client.Event, client.JobState): the serving layer
// encodes what the manager returns as it is. The manager is
// function-agnostic — it runs any Func — and the SDK imports only the
// standard library, so the synthesis layers stay out of its dependency
// cone and it can be tested with microsecond workloads.
package jobs
