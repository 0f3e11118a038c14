// Sweepservice: the full serving loop in one process — boot a pmsynthd
// with a persistent store, then drive it with the public SDK
// (repro/client) instead of raw HTTP: synthesize, sweep with live
// progress, submit several sweeps before waiting on any, and finally
// prove the warm path by asking for the same sweep again and watching it
// come back from cache with zero recompilation.
//
// Run with: go run ./examples/sweepservice
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"repro/client"
	"repro/internal/server"
)

const absDiff = `
# |a-b| -- the paper's running example.
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`

const gcd = `
func gcd(a: num<8>, b: num<8>) g: num<8>, nxt: num<8>, run: bool =
begin
    neq  = a != b;
    gtr  = a > b;
    mx   = if gtr -> a || b fi;
    mn   = if gtr -> b || a fi;
    diff = mx - mn;
    m3   = if neq -> diff || a fi;
    nxt  = if gtr -> m3 || b fi;
    m4   = if neq -> mn || a fi;
    g    = if gtr -> m4 || mn fi;
    run  = neq;
end
`

func main() {
	ctx := context.Background()

	// Boot an in-process pmsynthd with persistence enabled, exactly as
	// `pmsynthd -store-dir ...` would.
	storeDir, err := os.MkdirTemp("", "pmsynth-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)
	srv, err := server.New(server.Config{JobWorkers: 2, StoreDir: storeDir})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv.Handler())
	fmt.Printf("pmsynthd on http://%s (store: %s)\n\n", ln.Addr(), storeDir)

	c := client.New("http://" + ln.Addr().String())

	// --- One-shot synthesis through the SDK.
	syn, err := c.Synthesize(ctx, client.SynthesizeRequest{
		Source:  absDiff,
		Options: client.Options{Budget: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesize %s: %d steps, %.2f%% power reduction\n\n",
		syn.Row.Circuit, syn.Row.Steps, syn.Row.PowerReductionPct)

	// --- An asynchronous sweep, followed live over the event stream.
	fmt.Println("sweep gcd budgets 5..12:")
	_, info, err := c.SweepAndWait(ctx, client.SweepRequest{
		Source: gcd,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 12},
	}, func(ev client.Event) {
		fmt.Printf("  event %-9s %d/%d\n", ev.Type, ev.Done, ev.Total)
	})
	if err != nil {
		log.Fatal(err)
	}
	best, err := c.JobResult(ctx, info.ID, client.ResultQuery{View: "best", Objective: "power"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best point: budget %d -> %.2f%% power reduction\n\n",
		best.Best.Options.Budget, best.Best.Row.PowerReductionPct)

	// --- Several sweeps: submit every one before waiting on any, so the
	// daemon runs them concurrently. Each is an ordinary Sweep call, so
	// each is retried after a shed on its own; SweepAndWait then joins
	// each live job.
	many := []client.SweepRequest{
		{Source: absDiff, Spec: client.SweepSpec{BudgetMin: 2, BudgetMax: 6}},
		{Source: gcd, Spec: client.SweepSpec{BudgetMin: 5, BudgetMax: 8, Orders: []string{"outputs-first", "inputs-first"}}},
	}
	for _, req := range many {
		job, err := c.Sweep(ctx, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %d configurations as job %s\n", job.Total, job.ID)
	}
	for _, req := range many {
		_, info, err := c.SweepAndWait(ctx, req, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s, %d/%d\n", info.Name, info.State, info.Done, info.Total)
	}
	fmt.Println()

	// --- The warm path, for real: kill the daemon, boot a fresh one over
	// the same store directory, and resubmit the identical sweep. With
	// the original jobs dead, only the disk store can answer — and it
	// does: already succeeded, zero recompilation.
	ln.Close()
	srv.Close()
	srv2, err := server.New(server.Config{JobWorkers: 2, StoreDir: storeDir})
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln2, srv2.Handler())
	c2 := client.New("http://" + ln2.Addr().String())
	fmt.Printf("daemon restarted on http://%s over the same store\n", ln2.Addr())

	warm, err := c2.Sweep(ctx, client.SweepRequest{
		Source: gcd,
		Spec:   client.SweepSpec{BudgetMin: 5, BudgetMax: 12},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmitted sweep: state=%s cached=%v (job %s)\n", warm.State, warm.Cached, warm.ID)
	if !warm.Cached {
		log.Fatal("expected the restarted daemon to answer from the persistent store")
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store: %d entries, %d bytes on disk; %d compile since restart — the sweep came back without recomputing\n",
		m["pmsynthd_store_entries"], m["pmsynthd_store_bytes"], m["pmsynthd_compile_seconds_count"])
}
