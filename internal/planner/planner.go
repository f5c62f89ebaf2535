// Package planner implements the Sailor planner (§4.2): given resource
// quotas/availability, profiling information, an objective, and optional
// constraints, it jointly selects a resource allocation and a job
// parallelization plan.
//
// The search combines the paper's six pruning heuristics with the per-stage
// dynamic program of Listing 1:
//
//	H1  tensor parallelism stays within a node (single GPU type per replica)
//	H2  each stage offers a type only its minimum fitting TP and one doubling
//	H3  throughput objective: DP degrees descending until no improvement
//	H4  cost objective: DP degrees ascending until cost stops decreasing
//	H5  DP groups stay inside one region; the pipeline may cross regions
//	H6  zones within a region are consolidated for the search
//
// Heuristics are individually toggleable so Table 3 and the ablation bench
// can measure their contribution.
//
// The planner is a concurrent search engine: the outer (pp, mbs) candidate
// loop fans out across a worker pool (Options.Workers), each worker owning
// its own resource-state clone and DP memo while sharing only the incumbent
// best plan. A search that runs to completion
// returns a bit-identical result at any worker count: per-candidate
// evaluation is deterministic, H3/H4 early stops are scoped to one
// worker's scan, and ties between equally good plans break on the plan
// signature rather than arrival order. A search truncated by the deadline
// or context is anytime — it returns the best of whatever the cutoff
// allowed, and more workers cover more of the space before it.
//
// Replanning on a churn trace is warm-started: Replan/ReplanContext seed a
// fallback incumbent from the previously deployed plan and, with a
// WarmCache configured (Options.Warm), keep completed search results across
// calls, so a replan of a pool already solved is a lookup. Warm results are
// bit-identical to cold planning on the same pool — a stored result is a
// pure function of its key.
//
// The code is split across five files: planner.go (configuration and the
// Plan/PlanContext/Replan entry points), search.go (the worker pool and the
// per-candidate DP-degree scan), dp.go (the Listing-1 dynamic program and
// plan materialisation), state.go (region-indexed resource state and the
// packed memo keys), and warm.go (the cross-replan result cache).
package planner

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
)

// Heuristics selects which pruning rules are active.
type Heuristics struct {
	H2MinTP        bool // offer minTP and 2·minTP only (else every fitting TP)
	H3H4DPOrdering bool // objective-directed DP iteration with early stop
	H6MergeZones   bool // consolidate zones per region
}

// budgetBeamWidth bounds per-stage branching in the budget-constrained DP,
// where memoization is unsound (the remaining budget is part of the state).
const budgetBeamWidth = 8

// budgetExactMaxPP caps the pipeline depth for which the exact Listing-1
// budget recursion (straggler-adjustment loop, no memo) is attempted.
const budgetExactMaxPP = 4

// AllHeuristics enables everything (the Sailor default).
func AllHeuristics() Heuristics {
	return Heuristics{H2MinTP: true, H3H4DPOrdering: true, H6MergeZones: true}
}

// NoHeuristics is the dynamic-programming-only ablation of Table 3.
func NoHeuristics() Heuristics { return Heuristics{} }

// Options tunes the search.
type Options struct {
	Objective   core.Objective
	Constraints core.Constraints
	Heuristics  Heuristics
	// Deadline caps the wall-clock search; the best plan found so far is
	// returned when it expires. Zero means no cap. PlanContext callers can
	// cancel the search through the context as well.
	Deadline time.Duration
	// Workers is the number of goroutines exploring (pp, mbs) candidates
	// concurrently. Zero means runtime.NumCPU(). When the search runs to
	// completion the chosen plan is identical at any worker count; under
	// a Deadline/context cutoff, more workers cover more of the space.
	Workers int
	// Warm keeps completed search results across Plan/Replan calls, so a
	// call on a pool already solved is a lookup (see WarmCache). Nil means
	// every call searches. The cache binds to the first planner fingerprint that uses it;
	// a planner with a different model, objective, constraints, heuristic
	// set, or evaluator instance ignores it and searches cold.
	Warm *WarmCache
	// Guard, when set, re-validates the returned plan (and any warm-start
	// seed) against a free-capacity view. It never changes which plan the
	// search prefers. Only the benchmark module and this package's tests
	// set it (see guard.go for why sailor.Service does not).
	Guard *CapacityGuard
	// DisableDominancePruning turns off the dominance pruning of stage
	// compositions inside the DP (see dominance.go). Pruning is exact — the
	// chosen plan is identical either way — so this exists only for
	// ablations and for measuring the filter's effect on Explored. Excluded
	// from the warm-cache fingerprint: stored results are the same under
	// either setting.
	DisableDominancePruning bool
}

// Result is the planner's output plus search telemetry.
type Result struct {
	Plan     core.Plan
	Estimate core.Estimate
	// SearchTime is the call's wall-clock time, including any wait for the
	// warm cache while another search holds it.
	SearchTime time.Duration
	// Explored counts DP nodes plus full simulator evaluations. A suffix
	// the DP cuts by its capacity bound (suffixFits) is neither.
	Explored int
	// PlanBuildFailures counts DP solutions the search could not
	// materialise: a chain that fits its region buckets' pooled counts but
	// whose replicas find no zone with tp GPUs left of their type. Planner
	// telemetry only; it does not cross the wire.
	PlanBuildFailures int
	// WarmStart reports whether the search ran against a warm cache
	// (Options.Warm set and fingerprint-compatible).
	WarmStart bool
	// CacheHits is 1 for a result served whole from the warm cache's
	// stored searches (with Explored 0 and WarmStart true) and 0 otherwise.
	CacheHits int
	// Degraded marks a result the serving layer substituted for a fresh
	// search that was cut off by its deadline: the job's warm incumbent
	// plan re-estimated, not a new search. Always false for results the
	// planner itself returns.
	Degraded bool
	// SpeculativeHit is always false: no layer precomputes results any more.
	//
	// Deprecated: kept only for the benchmark module, its last reader; it
	// will be deleted once that reader drops it.
	SpeculativeHit bool
}

// Evaluator is the estimation backend the planner searches against: a
// plan-level estimate plus the stage-level hooks the Listing-1 dynamic
// program scores candidate stages with. The analytical simulator
// (internal/sim) is the default implementation.
//
// Every method must be a pure function of its arguments: the same quote for
// the same inputs, on every call. The planner relies on that throughout —
// each DP-degree scan quotes a stage's (type, TP) options once and builds
// every composition from those quotes, the warm cache reuses results
// across searches, and dominance pruning's completion bound (dominance.go)
// takes the fastest StageComputeTimeWith quote and the cheapest GPUHourUSD
// rate as floors for every DP suffix.
type Evaluator interface {
	// Estimate evaluates a plan end to end: iteration time, cost split,
	// and the peak memory of the most loaded worker.
	Estimate(core.Plan) (core.Estimate, error)
	// StageComputeTimeWith returns the per-microbatch fwd+bwd seconds of
	// one stage replica (time_for_stage). The planner always passes
	// recompute=false; the argument stays only for the benchmark module's
	// evaluator wrapper.
	StageComputeTimeWith(g core.GPUType, tp, mbs, layers int, last, recompute bool) (float64, error)
	// GPUHourUSD prices one GPU-hour of a type (cost_for_stage).
	GPUHourUSD(g core.GPUType) float64
	// DPSyncTime estimates a within-region gradient all-reduce of bytes
	// across d replicas.
	DPSyncTime(bytes int64, d int) float64
}

// Planner searches the joint resource-allocation x parallelization space.
// It holds only immutable configuration; all per-search state lives in the
// search struct, so one Planner may run any number of concurrent searches.
type Planner struct {
	Cfg  model.Config
	Sim  Evaluator
	Opts Options
	// maxPP caps the pipeline depth: 16, or the layer count if smaller.
	maxPP int
}

// New returns a planner over an estimation backend with the given options.
func New(cfg model.Config, s Evaluator, opts Options) *Planner {
	return &Planner{Cfg: cfg, Sim: s, Opts: opts, maxPP: min(16, cfg.Layers)}
}

// Plan runs the search against an availability pool, honoring
// Options.Deadline if set.
func (pl *Planner) Plan(pool *cluster.Pool) (Result, error) {
	return pl.PlanContext(context.Background(), pool)
}

// PlanContext is Plan with caller-controlled cancellation: the search stops
// at the next candidate boundary once ctx is done and returns the best plan
// found so far (or an error when nothing valid was found). Options.Deadline,
// when set, still applies on top of ctx.
func (pl *Planner) PlanContext(ctx context.Context, pool *cluster.Pool) (Result, error) {
	return pl.planContext(ctx, pool, nil)
}

// Replan is the warm-start entry point of the elastic hot path: plan `pool`
// starting from the plan deployed before the availability change. The
// previous plan seeds a fallback incumbent (so a deadline-cut replan is
// never worse than keeping the old plan, when it still fits the pool), and
// a configured Options.Warm cache answers a pool an earlier call already
// solved without searching. A warm Replan that runs to completion returns
// exactly the plan cold planning returns on the same pool.
func (pl *Planner) Replan(prev core.Plan, pool *cluster.Pool) (Result, error) {
	return pl.ReplanContext(context.Background(), prev, pool)
}

// ReplanContext is Replan with caller-controlled cancellation.
func (pl *Planner) ReplanContext(ctx context.Context, prev core.Plan, pool *cluster.Pool) (Result, error) {
	return pl.planContext(ctx, pool, &prev)
}

// seedFromPrev evaluates the previous plan against the new pool: if the
// pool still holds every GPU the plan occupies and the estimate passes the
// memory check and constraints, the plan is usable as a fallback incumbent.
func (pl *Planner) seedFromPrev(prev *core.Plan, pool *cluster.Pool) *candidate {
	if prev == nil || len(prev.Stages) == 0 {
		return nil
	}
	if !pool.CanFit(*prev) {
		return nil
	}
	if pl.Opts.Guard.Check(*prev) != nil {
		return nil
	}
	est, err := pl.Sim.Estimate(*prev)
	if err != nil || !est.FitsMemory {
		return nil
	}
	if !pl.Opts.Constraints.Satisfied(est.IterTime, est.Cost()) {
		return nil
	}
	return &candidate{res: Result{Plan: *prev, Estimate: est}}
}

// fingerprint identifies the search configuration a WarmCache binds to.
// The evaluator is bound separately by instance identity (WarmCache.ev):
// stored results embed its estimates, so they must never cross estimation
// backends (or profiler seeds). Deadline and Workers are excluded — they
// change how much of the space a cut-off search covers, never the result of
// a completed one.
func (pl *Planner) fingerprint() string {
	return fmt.Sprintf("%+v|%v|%+v|%+v|pp%d|mbs%v",
		pl.Cfg, pl.Opts.Objective, pl.Opts.Constraints, pl.Opts.Heuristics,
		pl.maxPP, mbsCandidates)
}

// planContext runs one search; prev, when set, is the deployed plan a
// replan seeds its fallback incumbent from.
func (pl *Planner) planContext(ctx context.Context, pool *cluster.Pool, prev *core.Plan) (Result, error) {
	start := time.Now()
	if pl.Opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pl.Opts.Deadline)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return pl.cutOff(start, prev, pool, err)
	}
	// warm is the cache this call holds until it returns: nil when there is
	// none or it belongs to another fingerprint, which searches cold.
	var warm *WarmCache
	var key string
	if w := pl.Opts.Warm; w != nil {
		if err := w.acquire(ctx); err != nil {
			return pl.cutOff(start, prev, pool, err)
		}
		if !w.bind(pl.fingerprint(), pl.Sim) {
			w.release()
		} else {
			warm = w
			defer w.release()
			key = poolKey(pool)
			if r, ok := w.res[key]; ok {
				res := detachResult(*r)
				if err := pl.Opts.Guard.Check(res.Plan); err != nil {
					return Result{SearchTime: time.Since(start)}, err
				}
				res.SearchTime = time.Since(start)
				res.Explored, res.WarmStart, res.CacheHits = 0, true, 1
				return res, nil
			}
		}
	}
	seed := pl.seedFromPrev(prev, pool)
	rs := newRegionState(pool, pl.Opts.Heuristics.H6MergeZones)
	if rs.totalGPUs() == 0 {
		return Result{}, fmt.Errorf("planner: empty resource pool")
	}

	s := newSearch(pl, ctx)
	defer s.stop()
	s.runPass(rs, pool)
	if warm != nil && s.best != nil && !s.expired() {
		r := detachResult(s.best.res)
		warm.store(key, &r)
	}
	// The seed is a fallback, not a competitor: a search that runs to
	// completion returns exactly what cold planning returns, and the
	// previous plan only steps in when the cutoff fired before the search
	// found anything at least as good.
	if seed != nil && (s.best == nil || (s.expired() && pl.betterCand(seed, s.best))) {
		s.best = seed
	}
	if s.best == nil {
		res := s.telemetry(start)
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("planner: search cancelled before a valid plan was found: %w", err)
		}
		return res, fmt.Errorf("planner: no valid plan within constraints for %d GPUs", pool.TotalGPUs())
	}
	if err := pl.Opts.Guard.Check(s.best.res.Plan); err != nil {
		return s.telemetry(start), err
	}
	best := s.best.res
	tel := s.telemetry(start)
	best.SearchTime, best.Explored, best.PlanBuildFailures = tel.SearchTime, tel.Explored, tel.PlanBuildFailures
	best.WarmStart = warm != nil
	return best, nil
}

// cutOff answers a call whose context ended before its search began — in
// the queue for the warm cache or earlier: the previous plan when it still
// fits the pool, else the context's error.
func (pl *Planner) cutOff(start time.Time, prev *core.Plan, pool *cluster.Pool, err error) (Result, error) {
	if seed := pl.seedFromPrev(prev, pool); seed != nil {
		res := seed.res
		res.SearchTime = time.Since(start)
		return res, nil
	}
	return Result{}, fmt.Errorf("planner: %w", err)
}

// nodeGPUs resolves the node size of a GPU type (heuristic H1 caps TP at
// it); the per-search cache in search.bindState avoids repeated catalogue
// lookups in the DP's inner loops.
func nodeGPUs(g core.GPUType) int {
	return hardware.DefaultNodeType(g).GPUsPerNode
}

// workerCount resolves Options.Workers.
func (pl *Planner) workerCount() int {
	if pl.Opts.Workers > 0 {
		return pl.Opts.Workers
	}
	return runtime.NumCPU()
}

// ppCandidates returns pipeline depths to explore: every power of two up to
// maxPP plus every divisor of the layer count (so 24-layer models see 3, 6,
// 12 as well).
func (pl *Planner) ppCandidates() []int {
	seen := map[int]bool{}
	var out []int
	add := func(p int) {
		if p >= 1 && p <= pl.maxPP && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for p := 1; p <= pl.maxPP; p *= 2 {
		add(p)
	}
	for p := 1; p <= pl.maxPP; p++ {
		if pl.Cfg.Layers%p == 0 {
			add(p)
		}
	}
	sort.Ints(out)
	return out
}

// mbsCandidates are the microbatch sizes every search explores.
var mbsCandidates = []int{1, 2, 4, 8}

// appendDCandidates appends to ds (passed empty) the data-parallel degrees
// in the order the objective's heuristic dictates (H3 descending for
// throughput, H4 ascending for cost); without H3/H4 the full ascending list
// is explored with no early stop.
func (pl *Planner) appendDCandidates(ds []int, maxD int) []int {
	for d := 1; d <= maxD; d *= 2 {
		ds = append(ds, d)
	}
	if pl.Opts.Heuristics.H3H4DPOrdering && pl.Opts.Objective == core.MaxThroughput {
		// Descending.
		for i, j := 0, len(ds)-1; i < j; i, j = i+1, j-1 {
			ds[i], ds[j] = ds[j], ds[i]
		}
	}
	return ds
}
