// Command pmclient drives a running pmsynthd through the public Go SDK
// (repro/client): one-shot synthesis, asynchronous sweeps with live
// progress, one sweep per file over many files, and job inspection — the
// supported client surface, replacing hand-written curl.
//
// Usage:
//
//	pmclient [-addr http://127.0.0.1:8357] <command> [flags]
//
// Commands:
//
//	health                      server liveness
//	metrics                     dump the server counters
//	synth   -file F -budget N [-ii N] [-order O] [-emit vhdl,verilog]
//	sweep   -file F [-budgets lo:hi] [-orders a,b] [-iis 1,2] [-workers N]
//	        [-watch] [-view best|pareto|table] [-objective o]
//	batch   -files a.sil,b.sil [-budgets lo:hi] [-orders a,b] [-wait]
//	                            one sweep per file, all submitted first
//	jobs                        list jobs
//	job     -id ID              one job's snapshot
//	cancel  -id ID              cancel a job
//	events  -id ID [-from N]    stream a job's NDJSON event log
//	result  -id ID [-view v] [-objective o]
//	trace   -id ID [-json]      a job's telemetry span tree
//
// The SDK retries shed (429) submissions with the server's Retry-After
// hint automatically; pmclient surfaces only definitive failures. With
// the global -v flag, pmclient prints the server's telemetry trace id
// of each submission on stderr; failed requests always print it, so a
// refusal can be correlated with server logs and /debug/traces.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/client"
)

// verbose is the global -v flag: print each submission's server-side
// telemetry trace id on stderr.
var verbose bool

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8357", "pmsynthd base URL")
	flag.BoolVar(&verbose, "v", false, "print each request's telemetry trace id on stderr")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	c := client.New(*addr)

	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "health":
		err = runHealth(ctx, c)
	case "metrics":
		err = runMetrics(ctx, c)
	case "synth":
		err = runSynth(ctx, c, args)
	case "sweep":
		err = runSweep(ctx, c, args)
	case "batch":
		err = runBatch(ctx, c, args)
	case "jobs":
		err = runJobs(ctx, c)
	case "job", "cancel", "events", "result", "trace":
		err = runJobCmd(ctx, c, cmd, args)
	default:
		fmt.Fprintf(os.Stderr, "pmclient: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmclient: %v\n", err)
		// A refused request still carries the server's trace id; print
		// it so the failure can be found in server logs and traces.
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.TraceID != "" {
			fmt.Fprintf(os.Stderr, "pmclient: server trace %s\n", apiErr.TraceID)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pmclient [-addr URL] [-v] <command> [flags]
commands: health metrics synth sweep batch jobs job cancel events result trace
run "pmclient <command> -h" for command flags`)
}

// traceNote prints a submission's trace id on stderr under -v.
func traceNote(trace string) {
	if verbose && trace != "" {
		fmt.Fprintf(os.Stderr, "trace %s\n", trace)
	}
}

// printJSON renders any value as indented JSON on stdout.
func printJSON(v interface{}) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// readSource loads a Silage source file.
func readSource(path string) (string, error) {
	if path == "" {
		return "", fmt.Errorf("missing -file")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func runHealth(ctx context.Context, c *client.Client) error {
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	return printJSON(h)
}

func runMetrics(ctx context.Context, c *client.Client) error {
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	return printJSON(m)
}

func runSynth(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	file := fs.String("file", "", "Silage source file")
	budget := fs.Int("budget", 0, "control-step budget")
	ii := fs.Int("ii", 0, "pipeline initiation interval")
	order := fs.String("order", "", "mux order (outputs-first, inputs-first, greedy-weight)")
	emit := fs.String("emit", "", "comma-separated artifacts: vhdl,verilog")
	fs.Parse(args)
	src, err := readSource(*file)
	if err != nil {
		return err
	}
	req := client.SynthesizeRequest{
		Source:  src,
		Options: client.Options{Budget: *budget, II: *ii, Order: *order},
	}
	if *emit != "" {
		req.Emit = strings.Split(*emit, ",")
	}
	res, err := c.Synthesize(ctx, req)
	if err != nil {
		return err
	}
	traceNote(res.Trace)
	return printJSON(res)
}

// parseSweepSpec builds a SweepSpec from the axis flags sweep and batch
// share.
func parseSweepSpec(budgets, orders, iis string, workers int) (client.SweepSpec, error) {
	spec := client.SweepSpec{Workers: workers}
	if budgets != "" {
		lo, hi, ok := strings.Cut(budgets, ":")
		if !ok {
			return spec, fmt.Errorf("bad -budgets %q: want lo:hi", budgets)
		}
		var err error
		if spec.BudgetMin, err = strconv.Atoi(lo); err != nil {
			return spec, fmt.Errorf("bad -budgets %q: %v", budgets, err)
		}
		if spec.BudgetMax, err = strconv.Atoi(hi); err != nil {
			return spec, fmt.Errorf("bad -budgets %q: %v", budgets, err)
		}
	}
	if orders != "" {
		spec.Orders = strings.Split(orders, ",")
	}
	if iis != "" {
		for _, s := range strings.Split(iis, ",") {
			n, err := strconv.Atoi(s)
			if err != nil {
				return spec, fmt.Errorf("bad -iis %q: %v", iis, err)
			}
			spec.IIs = append(spec.IIs, n)
		}
	}
	return spec, nil
}

func runSweep(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	file := fs.String("file", "", "Silage source file")
	budgets := fs.String("budgets", "", "budget range lo:hi")
	orders := fs.String("orders", "", "comma-separated mux orders")
	iis := fs.String("iis", "", "comma-separated initiation intervals")
	workers := fs.Int("workers", 0, "requested evaluation workers (server clamps)")
	watch := fs.Bool("watch", true, "follow the event stream until the job finishes")
	view := fs.String("view", "best", "result view once finished: best, pareto, table")
	objective := fs.String("objective", "", "best-view objective: power, area, steps")
	fs.Parse(args)
	src, err := readSource(*file)
	if err != nil {
		return err
	}
	spec, err := parseSweepSpec(*budgets, *orders, *iis, *workers)
	if err != nil {
		return err
	}
	req := client.SweepRequest{Source: src, Spec: spec}
	if !*watch {
		job, err := c.Sweep(ctx, req)
		if err != nil {
			return err
		}
		traceNote(job.Trace)
		return printJSON(job)
	}
	job, info, err := c.SweepAndWait(ctx, req, func(ev client.Event) {
		fmt.Fprintf(os.Stderr, "%s %d/%d\n", ev.Type, ev.Done, ev.Total)
	})
	if err != nil {
		return err
	}
	traceNote(job.Trace)
	switch {
	case job.Cached:
		fmt.Fprintln(os.Stderr, "served from the persistent store (no recompute)")
	case job.Deduped:
		fmt.Fprintln(os.Stderr, "joined an identical live job")
	}
	if info.State != client.StateSucceeded {
		return fmt.Errorf("job %s %s: %s", info.ID, info.State, info.Err)
	}
	res, err := c.JobResult(ctx, info.ID, client.ResultQuery{View: *view, Objective: *objective})
	if err != nil {
		return err
	}
	if *view == "table" {
		fmt.Print(res.Table)
		return nil
	}
	return printJSON(res)
}

// runBatch submits one sweep per file, every file before waiting on any,
// so the server evaluates them concurrently. Each submission is an
// ordinary Sweep call: routed, deduped and retried after a shed on its
// own. It prints each job as it is submitted; under -wait it then waits
// on each through SweepAndWait, which joins the live job (or resubmits
// one lost with its node), and prints each terminal snapshot.
func runBatch(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	files := fs.String("files", "", "comma-separated Silage source files, one sweep each")
	budgets := fs.String("budgets", "", "budget range lo:hi (applied to every file)")
	orders := fs.String("orders", "", "comma-separated mux orders (applied to every file)")
	wait := fs.Bool("wait", false, "wait until every job finishes")
	fs.Parse(args)
	if *files == "" {
		return fmt.Errorf("missing -files")
	}
	spec, err := parseSweepSpec(*budgets, *orders, "", 0)
	if err != nil {
		return err
	}
	var reqs []client.SweepRequest
	for _, path := range strings.Split(*files, ",") {
		src, err := readSource(path)
		if err != nil {
			return err
		}
		reqs = append(reqs, client.SweepRequest{Source: src, Spec: spec})
	}
	for _, req := range reqs {
		job, err := c.Sweep(ctx, req)
		if err != nil {
			return err
		}
		traceNote(job.Trace)
		if err := printJSON(job); err != nil {
			return err
		}
	}
	if !*wait {
		return nil
	}
	for _, req := range reqs {
		_, info, err := c.SweepAndWait(ctx, req, nil)
		if err != nil {
			return err
		}
		if err := printJSON(info); err != nil {
			return err
		}
	}
	return nil
}

func runJobs(ctx context.Context, c *client.Client) error {
	jobs, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	return printJSON(jobs)
}

func runJobCmd(ctx context.Context, c *client.Client, cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	id := fs.String("id", "", "job id")
	from := fs.Int64("from", 0, "resume the event stream after this sequence number")
	view := fs.String("view", "best", "result view: best, pareto, table")
	objective := fs.String("objective", "", "best-view objective: power, area, steps")
	asJSON := fs.Bool("json", false, "print the raw trace JSON instead of the rendered tree")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	switch cmd {
	case "job":
		info, err := c.Job(ctx, *id)
		if err != nil {
			return err
		}
		return printJSON(info)
	case "cancel":
		info, err := c.CancelJob(ctx, *id)
		if err != nil {
			return err
		}
		return printJSON(info)
	case "events":
		return c.StreamEvents(ctx, *id, *from, func(ev client.Event) error {
			return printJSON(ev)
		})
	case "result":
		res, err := c.JobResult(ctx, *id, client.ResultQuery{View: *view, Objective: *objective})
		if err != nil {
			return err
		}
		if *view == "table" {
			fmt.Print(res.Table)
			return nil
		}
		return printJSON(res)
	case "trace":
		tr, err := c.JobTrace(ctx, *id)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(tr)
		}
		fmt.Printf("trace %s  spans %d", tr.ID, tr.Spans)
		if tr.Dropped > 0 {
			fmt.Printf("  dropped %d", tr.Dropped)
		}
		fmt.Println()
		for _, root := range tr.Roots {
			printSpan(root, 0)
		}
		return nil
	}
	return fmt.Errorf("unreachable command %q", cmd)
}

// printSpan renders one span subtree as an indented line per span:
// name, duration, and the attribute annotations.
func printSpan(sp *client.TraceSpan, depth int) {
	fmt.Printf("%s%-24s %12s", strings.Repeat("  ", depth), sp.Name, sp.Duration())
	for _, a := range sp.Attrs {
		fmt.Printf("  %s=%s", a.Key, a.Value)
	}
	fmt.Println()
	for _, kid := range sp.Children {
		printSpan(kid, depth+1)
	}
}
