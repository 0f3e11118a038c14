package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/gen"
)

// Request is one user action: a synthesize call, or a sweep submission
// followed by one result view.
type Request struct {
	// Kind is "synth" or "sweep".
	Kind   string
	Source string
	// Budget and Emit ("", "vhdl" or "verilog") describe a synth request.
	Budget int
	Emit   string
	// BudgetMin..BudgetMax and View ("table", "best" or "pareto")
	// describe a sweep request.
	BudgetMin, BudgetMax int
	View                 string
	// Due is the open-loop send time, relative to the start of the load.
	Due time.Duration
}

// Key identifies the request's expected response: two requests with one
// key must be answered identically.
func (r Request) Key() string {
	sum := sha256.Sum256([]byte(r.Source))
	return fmt.Sprintf("%s|%d|%s|%d|%d|%s|%s", r.Kind, r.Budget, r.Emit,
		r.BudgetMin, r.BudgetMax, r.View, hex.EncodeToString(sum[:8]))
}

// listDigest fingerprints a request list, send times included.
func listDigest(reqs []Request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s|%d\n", r.Key(), r.Due)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// open selects an open loop: requests go out at their Due times
	// whatever the daemon's progress. Otherwise one client per CPU sends
	// its next request when the previous one completes.
	open bool
	// warm sends every distinct request once, untimed, before the load,
	// so the measured load sees only repeats: the steady state of a
	// server whose working set fits its memory caches.
	warm bool
	// restarts selects store-warm's shape: the whole list is replayed in
	// cycles, each against a fresh daemon over the store an untimed daemon
	// filled with the list's own answers.
	restarts bool
	// rssRate sets when the daemon's peak RSS is read: after rssRate
	// completed requests per second of run (0: at the end of each cycle).
	// A closed loop's daemon keeps every finished job for the job TTL, so
	// its memory grows with the work done; reading it at a count fixed by
	// the run length keeps a faster daemon from reading as a fatter one.
	// The rate lies below the slowest run measured, and a load that ends
	// before the count is invalid rather than read late.
	rssRate float64
	// list returns the requests of a run lasting seconds: the open loop's
	// schedule, store-warm's corpus, or the pre-built head of a fresh list.
	list func(seed int64, seconds float64) ([]Request, error)
	// fresh, set for the fixed-time closed loops, builds request i of an
	// endless list of new designs from (seed, i) alone.
	fresh func(seed int64, i int) (Request, error)
}

// The fresh lists' heads hold this many requests per second of run, about
// 1.4 times what the daemon sustained on 2 cores (sweep-control 150-250/s,
// sweep-datapath 120-200/s), so clients build requests only for a faster
// daemon. Building one costs about 0.5 ms (control) and 1.5 ms (datapath)
// of CPU, mostly compiling it to find its critical path; pre-building more
// would lengthen every run's set-up.
const (
	controlHeadRate  = 350
	datapathHeadRate = 250
)

// maxConditionals bounds sweep-control's if-expressions per design. Each
// compiles to one multiplexor, so a design has at most this many distinct
// selects, and 26 is the largest count power.AnalyzeExact enumerates
// exactly (2^26 outcomes): every point takes the exact activity path.
// The filter reads the source text, not the compiled graph, so the inputs
// do not change with the compiler.
const maxConditionals = 26

// serveRate is serve-interactive's mean arrival rate (requests/s), one
// fixed rate rather than a search for the highest sustainable one: it
// leaves the 2-core host idle enough that the generator's lag p99 stays
// near 1ms while the host is quiet.
const serveRate = 150

// storeWarmDesigns is store-warm's corpus size. It stays under pmsynthd's
// default -max-warm-jobs (256): beyond it, warm sweep replays are refused
// with 429 after the table was already read from disk.
const storeWarmDesigns = 240

var workloads = []*workload{
	{
		name:    "sweep-control",
		why:     "fresh conditional-rich designs swept over 4 budgets: schedule's per-mux passes and exact activity, the paper's mechanism, do the work",
		rssRate: 30,
		list:    head(controlHeadRate, controlDesign),
		fresh:   controlDesign,
	},
	{
		name:    "sweep-datapath",
		why:     "fresh conditional-free datapaths (~150 ops): nothing to gate, so compile, baseline, bind and controller carry the work; the mux mechanisms are bypassed",
		rssRate: 30,
		list:    head(datapathHeadRate, datapathDesign),
		fresh:   datapathDesign,
	},
	{
		name:    "serve-interactive",
		why:     "open loop at 150 req/s over 64 small designs drawn Zipf(1.1), caches warmed first: HTTP, JSON, admission, jobs and the cache tiers do the work",
		open:    true,
		warm:    true,
		rssRate: 100,
		list:    serveList,
	},
	{
		name:     "store-warm",
		why:      "restarted daemons replay 480 requests whose answers sit in the disk store: store reads, warm restores and startup do the work, never compile or flow",
		restarts: true,
		list: func(seed int64, _ float64) ([]Request, error) {
			cfg := gen.Default()
			cfg.Ops = 10
			pairs, err := parallel(storeWarmDesigns, func(i int) (Request, error) {
				return sweepRequest(gen.Source(subSeed(seed, "store-warm", i, 0), cfg), 2, "table")
			})
			if err != nil {
				return nil, err
			}
			var out []Request
			for _, sw := range pairs {
				out = append(out, sw, Request{Kind: "synth", Source: sw.Source, Budget: sw.BudgetMin + 1})
			}
			return out, nil
		},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// controlDesign is sweep-control's request i: a 20-statement design with
// mux trees of fan-in up to 3 and at most maxConditionals conditionals,
// swept over cp..cp+3.
func controlDesign(seed int64, i int) (Request, error) {
	cfg := gen.Default()
	cfg.Ops = 20
	for attempt := 0; attempt < 1000; attempt++ {
		src := gen.Source(subSeed(seed, "sweep-control", i, attempt), cfg)
		if countConditionals(src) <= maxConditionals {
			return sweepRequest(src, 3, "table")
		}
	}
	return Request{}, fmt.Errorf("sweep-control item %d: no design with at most %d conditionals", i, maxConditionals)
}

// datapathDesign is sweep-datapath's request i: a 150-statement design
// without conditionals, swept over cp..cp+3.
func datapathDesign(seed int64, i int) (Request, error) {
	cfg := gen.Default()
	cfg.Ops = 150
	cfg.MuxFanIn = 1
	return sweepRequest(gen.Source(subSeed(seed, "sweep-datapath", i, 0), cfg), 3, "table")
}

// head returns the list function of a fresh workload: rate requests per
// second of run, pre-built on one goroutine per CPU.
func head(rate float64, fresh func(seed int64, i int) (Request, error)) func(int64, float64) ([]Request, error) {
	return func(seed int64, seconds float64) ([]Request, error) {
		return parallel(int(rate*seconds), func(i int) (Request, error) { return fresh(seed, i) })
	}
}

// countConditionals counts the if-expressions of a generated source, which
// the printer always parenthesizes.
func countConditionals(src string) int { return strings.Count(src, "(if ") }

// subSeed derives the generator seed of item i (attempt a) of a stream.
func subSeed(seed int64, stream string, i, attempt int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", seed, stream, i, attempt)
	return int64(h.Sum64() >> 1)
}

// sweepRequest builds a sweep over budgets cp..cp+extra of src.
func sweepRequest(src string, extra int, view string) (Request, error) {
	cp, err := criticalPath(src)
	if err != nil {
		return Request{}, err
	}
	return Request{Kind: "sweep", Source: src, BudgetMin: cp, BudgetMax: cp + extra, View: view}, nil
}

// criticalPath compiles src and returns its critical path.
func criticalPath(src string) (int, error) {
	d, err := pmsynth.Compile(src)
	if err != nil {
		return 0, fmt.Errorf("generated design does not compile: %w", err)
	}
	return pmsynth.CriticalPath(d)
}

// parallel builds n requests with f on one goroutine per CPU.
func parallel(n int, f func(i int) (Request, error)) ([]Request, error) {
	out := make([]Request, n)
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				r, err := f(i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// serveDesign is one design of serve-interactive's pool.
type serveDesign struct {
	src string
	cp  int
}

// servePool is the paper's circuits, the non-paper examples and 56
// generated small designs: 64 in all.
func servePool(seed int64) ([]serveDesign, error) {
	var pool []serveDesign
	named := append(bench.All(), bench.AbsDiff())
	for _, c := range append(named, bench.Extras()...) {
		cp, err := c.Graph().CriticalPath()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		pool = append(pool, serveDesign{c.Source, cp})
	}
	cfg := gen.Default()
	cfg.Ops = 10
	for i := len(pool); i < 64; i++ {
		src := gen.Source(subSeed(seed, "serve-pool", i, 0), cfg)
		cp, err := criticalPath(src)
		if err != nil {
			return nil, err
		}
		pool = append(pool, serveDesign{src, cp})
	}
	return pool, nil
}

// serveList draws a Poisson arrival schedule at serveRate. Each arrival
// picks a design by Zipf(1.1) popularity: 75% are synthesize calls at
// budget cp..cp+2, one in five of them emitting VHDL or Verilog; 25% are
// sweeps over 2 or 3 budgets followed by the best, pareto or table view.
func serveList(seed int64, seconds float64) ([]Request, error) {
	pool, err := servePool(seed)
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(subSeed(seed, "serve-interactive", 0, 0)))
	rank := rnd.Perm(len(pool))
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(len(pool)-1))
	views := []string{"best", "pareto", "table"}
	emits := []string{"vhdl", "verilog"}
	var out []Request
	due := time.Duration(0)
	for {
		due += time.Duration(rnd.ExpFloat64() / serveRate * float64(time.Second))
		if due.Seconds() >= seconds {
			return out, nil
		}
		d := pool[rank[zipf.Uint64()]]
		r := Request{Kind: "synth", Source: d.src, Budget: d.cp + rnd.Intn(3), Due: due}
		if rnd.Float64() < 0.25 {
			r = Request{Kind: "sweep", Source: d.src, BudgetMin: d.cp, BudgetMax: d.cp + 1 + rnd.Intn(2),
				View: views[rnd.Intn(len(views))], Due: due}
		} else if rnd.Intn(5) == 0 {
			r.Emit = emits[rnd.Intn(len(emits))]
		}
		out = append(out, r)
	}
}
