package flow

import (
	"context"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// RunAllPipeline evaluates pipeline p (nil means Standard()) once per
// configuration over a bounded worker pool and returns one Context per
// configuration, in input order. Results are deterministic: the worker
// count affects wall-clock time only, never the artifacts.
//
// The shared read-only analyses of g (depth, height, critical path,
// topological order) are prewarmed once. Every configuration reads them
// from g itself, or from the fork its PM pass makes when it commits
// control edges, which shares them with g's nodes, so the
// per-configuration runs do not recompute them. Nothing else is memoized:
// every call runs the pipeline for every configuration and returns
// Contexts it alone owns, with their Ctx field cleared.
//
// Ownership. A Context owns what its row keeps, allocated per point: the
// schedules' time vectors, the bindings, the guards, the activity, and the
// PM graph's control edges with the analyses that depend on them. Its PM
// graph shares g's nodes, and its baseline schedule may alias g; they,
// like g, are read-only. Everything else a pass uses only while it runs
// (the list scheduler's state, the windows, the PM pass's deriver, the
// binder's and the activity walk's tables) comes from its package's
// bounded free list (internal/scratch) and goes back there before the
// pass returns, so the points of this and every later sweep reuse it, on
// whichever goroutine they run.
//
// A configuration whose pipeline fails has its error recorded in the
// Context's Err field; RunAllPipeline itself returns an error only when
// ctx is canceled, in which case the contexts evaluated so far are still
// returned (unevaluated slots are nil).
func RunAllPipeline(ctx context.Context, p *Pipeline, g *cdfg.Graph, width int, cfgs []core.Config, workers int) ([]*Context, error) {
	return RunAllPipelineObserved(ctx, p, g, width, cfgs, workers, nil)
}

// RunAllPipelineObserved is RunAllPipeline with a completion observer:
// observe(i, fc) is called once per configuration, immediately after its
// pipeline finishes (successfully or not), with the configuration's input
// index and its Context. Observers feed progress reporting in the layers
// above (the pmsynth sweep API and the pmsynthd job manager).
//
// The observer is called from the worker goroutines, so calls may arrive
// out of input order and concurrently; it must be safe for concurrent use.
// Observation never influences the artifacts: results remain identical to
// an unobserved run.
func RunAllPipelineObserved(ctx context.Context, p *Pipeline, g *cdfg.Graph, width int, cfgs []core.Config, workers int, observe func(i int, fc *Context)) ([]*Context, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = Standard()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	out := make([]*Context, len(cfgs))
	if len(cfgs) == 0 {
		return out, ctx.Err()
	}

	g.PrewarmAnalyses()

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fc := runPoint(ctx, p, g, width, cfgs[i])
				out[i] = fc
				if observe != nil {
					observe(i, fc)
				}
			}
		}()
	}
feed:
	for i := range cfgs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return out, ctx.Err()
}

// runPoint evaluates one sweep point by running the pipeline on a fresh
// Context. The returned Context has its Ctx field cleared, so no result
// pins the caller's cancellation context or trace beyond the run.
//
// With a telemetry.Trace on ctx, each evaluation records a "point" span
// (budget/II config attrs) whose children are the per-pass spans.
func runPoint(ctx context.Context, p *Pipeline, g *cdfg.Graph, width int, cfg core.Config) *Context {
	ctx, psp := telemetry.StartSpan(ctx, "point")
	if psp != nil {
		psp.SetAttr("budget", strconv.Itoa(cfg.Budget))
		if cfg.II > 0 {
			psp.SetAttr("ii", strconv.Itoa(cfg.II))
		}
		defer psp.End()
	}
	fc := &Context{Ctx: ctx, Graph: g, Width: width, Config: cfg}
	fc.Err = p.Run(fc)
	fc.Ctx = nil
	return fc
}
