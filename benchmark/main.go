package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupProbes is how many extra daemon starts measure setup_s: a start
// takes 4-5 ms of CPU, and one start alone varies by a fifth.
const setupProbes = 21

// inputsJSON records the request-list digests of the default seed.
//
//go:embed inputs.json
var inputsJSON []byte

// inputs is the parsed inputs.json.
type inputs struct {
	// Seed and Seconds are the list the digests cover.
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Digests map[string]string `json:"digests"`
}

// errInvalid marks a run whose numbers must not be reported.
var errInvalid = errors.New("invalid run")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code: 0 for a correct
// run, 1 for wrong outputs or a failure, 2 for bad usage or an invalid run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep-control, sweep-datapath, serve-interactive or store-warm")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 15, "measured load time per run")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	bin := fs.String("daemon", filepath.Join(".bench_build", "pmbench", "pmsynthd"), "pmsynthd binary under test")
	work := fs.String("work", filepath.Join(".bench_build", "pmbench"), "directory for stores and the span file")
	out := fs.String("out", "", "span file of a traced run (default: trace-<workload>-<seed>.json under -work)")
	digests := fs.Bool("digests", false, "print the default seed's input digests as inputs.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var in inputs
	if err := json.Unmarshal(inputsJSON, &in); err != nil {
		fmt.Fprintf(stderr, "pmbench: inputs.json: %v\n", err)
		return 1
	}
	if *digests {
		return printDigests(in, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "pmbench: need -workload (one of the four), -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	if got, err := inputDigest(w, in); err != nil || got != in.Digests[w.name] {
		fmt.Fprintf(stderr, "pmbench: %s: the default seed's request list changed (digest %s, recorded %s, err %v): the generator drifted\n",
			w.name, got, in.Digests[w.name], err)
		return 2
	}
	reqs, err := w.list(*seed, *seconds)
	if err != nil {
		fmt.Fprintf(stderr, "pmbench: generating inputs: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	e := &env{bin: *bin, work: filepath.Join(*work, "run"), conns: runtime.NumCPU()}
	defer os.RemoveAll(e.work)
	spans := *out
	if spans == "" {
		spans = filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
	}
	list := &requestList{reqs: reqs}
	if w.fresh != nil {
		list.grow = func(i int) (Request, error) { return w.fresh(*seed, i) }
	}
	res, err := measure(ctx, e, w, list, *seed, *seconds, *traceFlag == 1, spans, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pmbench: %s: %v\n", w.name, err)
		if errors.Is(err, errInvalid) {
			return 2
		}
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "pmbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload: fill (store-warm), setup probes, the plain
// load and, traced, a second load plus the replay; then the correctness
// gate. It prints a readable report to report and returns the result line.
func measure(ctx context.Context, e *env, w *workload, list *requestList, seed int64, seconds float64,
	traced bool, spanFile string, report io.Writer) (*result, error) {
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	store := ""
	if w.restarts {
		var err error
		if store, err = e.fillStore(ctx, list.all()); err != nil {
			return nil, err
		}
	}
	var setups []startup
	if !traced {
		var err error
		if setups, err = e.probeSetup(ctx, store, setupProbes); err != nil {
			return nil, err
		}
	}
	plain, err := e.runLoad(ctx, w, list, store, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, plain.setups...)
	loads := []*loadResult{plain}
	var vals map[string]float64
	defs := endToEnd
	if traced {
		tl, err := e.runLoad(ctx, w, list, store, seed, seconds, true)
		if err != nil {
			return nil, err
		}
		loads = append(loads, tl)
		reqs := list.all()
		// Half the run time bounds the serial replay, which is sampled
		// beyond it (see replayResult.fraction).
		rr, err := replay(w, reqs, tl, filepath.Join(e.work, "replay-store"), time.Duration(seconds/2*float64(time.Second)))
		if err != nil {
			return nil, err
		}
		vals = layerMetrics(reqs, plain, tl, rr)
		defs = perLayer()
		if err := writeSpans(spanFile, tl, rr); err != nil {
			return nil, err
		}
		fmt.Fprintf(report, "pmbench: spans written to %s (replayed %.0f%% of the computed requests)\n", spanFile, 100*rr.fraction)
	} else {
		vals = endToEndValues(plain, setups)
	}
	res := &result{}
	for _, l := range loads {
		if err := validate(l); err != nil {
			return nil, fmt.Errorf("%w: %v", errInvalid, err)
		}
		res.Attempted += l.attempted
		res.Failed += l.failed
	}
	g := check(list.all(), loads, seed)
	res.Correct = len(g.problems) == 0
	if res.Metrics, err = metricsOf(defs, vals); err != nil {
		return nil, err
	}
	printReport(report, w, seed, plain, setups, g, defs, vals)
	return res, nil
}

// endToEndValues computes the end-to-end metrics over the whole load: the
// median CPU time of a daemon start and the median peak RSS, and the
// daemon's CPU time per successful request.
func endToEndValues(l *loadResult, setups []startup) map[string]float64 {
	ss := make([]float64, len(setups))
	for i, s := range setups {
		ss[i] = s.cpu.Seconds()
	}
	return map[string]float64{
		"setup_s":        median(ss),
		"cpu_ms_per_req": ms(l.cpu) / float64(len(l.latMs)),
		"rss_peak_mb":    median(l.rss),
	}
}

// printReport writes the human-readable summary of a run.
func printReport(out io.Writer, w *workload, seed int64, l *loadResult, setups []startup, g gate, defs []metric, vals map[string]float64) {
	fmt.Fprintf(out, "pmbench: %s seed %d: %d requests, %d failed, %.2fs measured\n",
		w.name, seed, l.attempted, l.failed, l.elapsed.Seconds())
	walls := make([]float64, len(setups))
	for i, s := range setups {
		walls[i] = ms(s.wall)
	}
	fmt.Fprintf(out, "  daemon start to first /healthz 200: %.3f ms wall time (median of %d)\n", median(walls), len(walls))
	if l.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", l.firstErr)
	}
	// Throughput, the median and the highest percentile with minBeyond
	// samples beyond it are ungated: on a shared host they follow the
	// stolen CPU time, not the daemon.
	fmt.Fprintf(out, "  %.2f requests/s, latency p50 %.3f ms\n", float64(len(l.latMs))/l.elapsed.Seconds(), median(l.latMs))
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if v, beyond := percentile(l.latMs, q); beyond >= minBeyond {
			fmt.Fprintf(out, "  latency p%g %.3f ms (%d samples, %d beyond)\n", 100*q, v, len(l.latMs), beyond)
			break
		}
	}
	if len(l.lagMs) > 0 {
		lag, _ := percentile(l.lagMs, 0.99)
		fmt.Fprintf(out, "  open-loop generator lag p99 %.3f ms\n", lag)
	}
	// The share the hypervisor stole is the usual reason two runs of one
	// seed disagree on a shared host.
	h := l.host
	if total := float64(h.busy + h.idle + h.iowait + h.steal); total > 0 {
		fmt.Fprintf(out, "  machine CPU time during the load: %.0f%% busy, %.0f%% idle, %.0f%% waiting on I/O, %.0f%% stolen by the hypervisor\n",
			100*float64(h.busy)/total, 100*float64(h.idle)/total, 100*float64(h.iowait)/total, 100*float64(h.steal)/total)
	}
	for _, m := range defs {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(out, "  result digest %s (first %d requests)\n", g.digest, digestLen)
	for _, p := range g.problems {
		fmt.Fprintf(out, "  INCORRECT: %s\n", p)
	}
}

// inputDigest is the digest of w's request list for the recorded seed.
func inputDigest(w *workload, in inputs) (string, error) {
	reqs, err := w.list(in.Seed, in.Seconds)
	if err != nil {
		return "", err
	}
	return listDigest(reqs), nil
}

// printDigests prints inputs.json for the current generator.
func printDigests(in inputs, stdout, stderr io.Writer) int {
	in.Digests = make(map[string]string)
	for _, w := range workloads {
		d, err := inputDigest(w, in)
		if err != nil {
			fmt.Fprintf(stderr, "pmbench: %s: %v\n", w.name, err)
			return 1
		}
		in.Digests[w.name] = d
	}
	b, _ := json.MarshalIndent(in, "", "  ") // strings and numbers always marshal
	fmt.Fprintln(stdout, string(b))
	return 0
}
