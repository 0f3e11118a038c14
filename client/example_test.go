package client_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"repro/client"
	"repro/internal/server"
)

// Example drives the SDK against an in-process pmsynthd: one-shot
// synthesis, then an asynchronous sweep followed to completion. Against a
// real daemon, replace the httptest server with client.New("http://host:8357").
func Example() {
	srv, err := server.New(server.Config{JobWorkers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL)

	src := `
func absdiff(a: num<8>, b: num<8>) out: num<8> =
begin
    g   = a > b;
    d1  = a - b;
    d2  = b - a;
    out = if g -> d1 || d2 fi;
end
`
	// One-shot synthesis.
	syn, err := c.Synthesize(ctx, client.SynthesizeRequest{
		Source:  src,
		Options: client.Options{Budget: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d steps, %.2f%% power reduction\n",
		syn.Row.Circuit, syn.Row.Steps, syn.Row.PowerReductionPct)

	// Asynchronous sweep, waited to completion over the event stream.
	_, info, err := c.SweepAndWait(ctx, client.SweepRequest{
		Source: src,
		Spec:   client.SweepSpec{BudgetMin: 2, BudgetMax: 4},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	best, err := c.JobResult(ctx, info.ID, client.ResultQuery{View: "best", Objective: "power"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep %s: best budget %d -> %.2f%% power reduction\n",
		info.State, best.Best.Options.Budget, best.Best.Row.PowerReductionPct)
	// Output:
	// absdiff: 3 steps, 27.27% power reduction
	// sweep succeeded: best budget 3 -> 27.27% power reduction
}
