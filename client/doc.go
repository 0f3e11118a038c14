// Package client is the Go SDK for the pmsynthd HTTP API: a typed client
// for one-shot synthesis, asynchronous design-space sweeps, job polling,
// and live NDJSON event streaming.
//
// Its types are the wire: pmsynthd decodes and encodes these same
// request, response, job and event types, so the SDK and the server share
// one definition of every JSON shape. The package imports only the
// standard library, so importing it never pulls in the synthesis engine.
//
// # Quick start
//
//	c := client.New("http://127.0.0.1:8357")
//	res, err := c.Synthesize(ctx, client.SynthesizeRequest{
//		Source:  src,
//		Options: client.Options{Budget: 3},
//	})
//	fmt.Println(res.Row.PowerReductionPct)
//
// Sweeps are asynchronous; SweepAndWait submits, follows the event
// stream, and returns the finished job:
//
//	job, info, err := c.SweepAndWait(ctx, client.SweepRequest{
//		Source: src,
//		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 8},
//	}, nil)
//	best, err := c.JobResult(ctx, info.ID, client.ResultQuery{View: "best"})
//
// N sweeps are N Sweep calls. Submit them all first so the server
// evaluates them concurrently, then wait on each with SweepAndWait: the
// identical resubmission joins the live job, and a job lost with its
// node is resubmitted. Each call gets the cluster routing, retry and
// failover described below on its own.
//
// # Backpressure and retries
//
// pmsynthd sheds sweep submissions with 429 + Retry-After when its
// admission queue is full. The client retries 429 and 503 responses (and
// transport errors) automatically, honoring the server's Retry-After
// hint, up to the configured attempt budget — every pmsynthd endpoint is
// content-addressed or read-only, so retrying a submission is always
// safe. Failures carry *APIError with the HTTP status and the server's
// error message.
package client
