package planner

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memory"
)

// search is the shared state of one Plan/PlanContext invocation: the
// cancellation signal, the telemetry counters and the incumbent best plan.
type search struct {
	pl         *Planner
	done       atomic.Bool
	explored   atomic.Int64
	buildFails atomic.Int64

	// rs is the top-level region state the pass was built from; tasks use
	// its immutable region/type index (their own mutable clone carries the
	// counts). ratePerSec and nodeCap are per-typeIdx evaluator constants
	// resolved once per search so the DP's inner loops never re-query the
	// pricing model or the hardware catalogue.
	rs         *regionState
	ratePerSec []float64
	nodeCap    []int

	// minRate is the cheapest per-GPU USD/second over the GPU types
	// available anywhere in the pool (dominance pruning's rate floor).
	minRate float64

	// The pool as plan materialisation needs it, built once per pass: its
	// zones, their availability as a flat [zone][type] table, and per region
	// bucket of rs the zones a replica placed there may land in.
	zones       []core.Zone
	zoneAvail   []int
	bucketZones [][]int

	// scratch holds one task per worker, reset — not reallocated — between
	// the (pp, mbs) jobs that worker runs, and dies with the search: no
	// result points into it.
	scratch []*task

	// mu guards the incumbent. Workers publish candidates through offer's
	// objective-aware compare-and-swap; ties break on the plan signature,
	// never on arrival order, so the winner is independent of scheduling.
	mu   sync.Mutex
	best *candidate

	watch chan struct{} // closed by stop() to release the ctx watcher
}

// candidate pairs a search result with its lazily computed plan signature.
// The signature is needed only to break exact metric ties, which are rare,
// so Plan.String is no longer rebuilt for every materialised candidate —
// only when a comparison actually reaches the tie-break.
type candidate struct {
	res    Result
	sig    string
	sigSet bool
}

// signature returns the tie-breaking plan signature, computing it at most
// once. Safe for the goroutine owning the candidate; the shared incumbent's
// signature is only resolved under the search mutex.
func (c *candidate) signature() string {
	if !c.sigSet {
		c.sig = c.res.Plan.String()
		c.sigSet = true
	}
	return c.sig
}

// newSearch starts a search.
func newSearch(pl *Planner, ctx context.Context) *search {
	s := &search{pl: pl, watch: make(chan struct{})}
	if d := ctx.Done(); d != nil {
		// Latch cancellation into an atomic so the hot DP loop polls a
		// plain load instead of taking the context's lock per node.
		go func() {
			select {
			case <-d:
				s.done.Store(true)
			case <-s.watch:
			}
		}()
	}
	return s
}

// stop releases the context watcher goroutine.
func (s *search) stop() { close(s.watch) }

func (s *search) expired() bool { return s.done.Load() }

// telemetry is a plan-less Result carrying the search's counters, timed
// from start.
func (s *search) telemetry(start time.Time) Result {
	return Result{SearchTime: time.Since(start), Explored: int(s.explored.Load()),
		PlanBuildFailures: int(s.buildFails.Load())}
}

// bindState resolves the per-typeIdx evaluator constants, the cheapest
// available rate and the zone table for a pass.
func (s *search) bindState(rs *regionState, pool *cluster.Pool) {
	s.rs = rs
	s.zones = pool.Zones()
	s.zoneAvail = make([]int, 0, len(s.zones)*len(rs.types))
	for _, z := range s.zones {
		for _, g := range rs.types {
			s.zoneAvail = append(s.zoneAvail, pool.Available(z, g))
		}
	}
	s.bucketZones = make([][]int, len(rs.regions))
	for ri, name := range rs.regions {
		for zi, z := range s.zones {
			// In zone-granular search (no H6) bucket names are zone names.
			if z.Region == name || !s.pl.Opts.Heuristics.H6MergeZones && z.Name == name {
				s.bucketZones[ri] = append(s.bucketZones[ri], zi)
			}
		}
	}
	s.ratePerSec = make([]float64, len(rs.types))
	s.nodeCap = make([]int, len(rs.types))
	for ti, g := range rs.types {
		s.ratePerSec[ti] = s.pl.Sim.GPUHourUSD(g) / 3600
		s.nodeCap[ti] = nodeGPUs(g)
		if r := s.ratePerSec[ti]; rs.available(ti) && (s.minRate == 0 || r < s.minRate) {
			s.minRate = r
		}
	}
}

// offer publishes a candidate to the shared incumbent. The incumbent is a
// private copy, its plan detached from the caller's scratch, so neither the
// worker's next job nor later lazy-signature fills on the caller's candidate
// race with other workers' comparisons.
func (s *search) offer(c *candidate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.best == nil || s.pl.betterCand(c, s.best) {
		cp := *c
		cp.res.Plan = detachPlan(c.res.Plan)
		s.best = &cp
	}
}

// runPass fans the (pp, mbs) candidate grid across the worker pool. Each
// worker runs its jobs on its own scratch task — its own DP memo and
// region-state copy — so workers share nothing hot but the incumbent.
func (s *search) runPass(rs *regionState, pool *cluster.Pool) {
	type job struct {
		layers []int
		mbs    int
	}
	var jobs []job
	for _, pp := range s.pl.ppCandidates() {
		layers := core.SplitLayers(s.pl.Cfg.Layers, pp)
		for _, mbs := range mbsCandidates {
			jobs = append(jobs, job{layers, mbs})
		}
	}
	if len(jobs) == 0 {
		return
	}
	s.bindState(rs, pool)

	runJob := func(t *task, j job) {
		if s.expired() {
			return
		}
		t.reset(rs, j.mbs)
		t.searchDP(j.layers, j.mbs)
		// Counters are batched per job: no atomics in the DP's inner loop.
		s.explored.Add(t.explored)
		s.buildFails.Add(t.buildFails)
	}

	workers := min(s.pl.workerCount(), len(jobs))
	if workers <= 1 {
		for _, j := range jobs {
			runJob(s.taskFor(0), j)
		}
		return
	}
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(t *task) {
			defer wg.Done()
			for j := range ch {
				runJob(t, j)
			}
		}(s.taskFor(w))
	}
	for _, j := range jobs {
		if s.expired() {
			break
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// taskFor returns worker w's scratch task, creating it on first use (only
// the goroutine driving the pass calls it, before the workers start).
func (s *search) taskFor(w int) *task {
	for len(s.scratch) <= w {
		s.scratch = append(s.scratch, &task{s: s, pl: s.pl})
	}
	return s.scratch[w]
}

// task is one worker's state while exploring a single (pp, mbs) candidate:
// the DP memo is valid only within one DP-degree scan, and the cost-lean
// flag changes what the DP optimises. The scratch buffers below make the
// DP's inner loops allocation-free without changing any comparison.
//
// A task is also its worker's scratch for the whole search: reset readies it
// for the next job and searchDP rewinds its arenas degree by degree, so a
// job needing no more capacity than the jobs before it allocates nothing
// here. Nothing carved from it outlives the degree it was carved for: the
// incumbent carries a detached plan (search.offer).
type task struct {
	s  *search
	pl *Planner

	// rs is the task's mutable copy of the search's region state.
	rs regionState

	// dpMemo holds the scan-local memo for inline-packed states (the
	// common case; its pointer-free key and open-addressed layout make the
	// probe — the DP's hottest instruction stream — a three-word hash and
	// a linear scan of adjacent slots). dpMemoSpill is the fallback for
	// pools whose availability does not pack into the key words.
	dpMemo      dpTable
	dpMemoSpill map[dpKey]*dpNode
	// costLean flips the DP's comparison to prefer cheap stages over fast
	// ones; the budget fallback uses it for its second pass.
	costLean bool
	// mbs is the task's microbatch size.
	mbs int

	// caps are the current DP-degree scan's per-stage memo-key lane caps;
	// minLo[i*types+t] is the smallest TP the scan offers type t at any
	// stage from i on, 0 when t fits none of them (suffixFits' divisors).
	caps  laneCaps
	minLo []int
	// explored and buildFails batch one job's telemetry counters.
	explored   int64
	buildFails int64

	// Dominance pruning inputs (see dominance.go): suffix sums and maxima
	// of the partition's per-stage time floors.
	domOn     bool
	domSufSum []float64
	domSufMax []float64

	// nodes and groups are the arenas of the DP's escaping values (newNode,
	// allocGroups).
	// sigA/sigB are the scratch of the piecewise signature tie-breaks.
	nodes      chunked[dpNode]
	groups     chunked[replicaGroup]
	sigA, sigB []byte

	// Per-depth enumeration scratch (see stageCombos).
	combosBuf [][]stageChoice
	// comboCache/comboGroups/comboOK hold, per stage, the scored
	// availability-independent composition list of the current DP-degree
	// scan (see buildCombos); resetMemo invalidates them scan-by-scan.
	comboCache  [][]stageChoice
	comboGroups [][]replicaGroup
	comboOK     []bool
	// spans holds the scan's TP span per (stage, type) (setCaps); quoteBuf
	// and optsBuf are buildCombos' per-(type, TP) quotes and their per-type
	// ranges.
	spans    []tpSpan
	quoteBuf []tpQuote
	optsBuf  []typeOption
	// bestGBuf holds each stage's incumbent winner composition while the
	// combos loop runs; only the surviving winner is detached into the
	// group arena at materialisation.
	bestGBuf  [][]replicaGroup
	availBuf  []int
	partition []int

	// Plan materialisation scratch (buildPlan): the remaining per-zone
	// availability; per DP solution of one degree (time-optimal, cost-lean)
	// the plan under evaluation and its candidate; the job's best so far,
	// its plan in bestPlan. dBuf holds the job's DP degrees.
	zoneLeft []int
	plans    [2]planBuf
	cands    [2]candidate
	bestPlan planBuf
	best     candidate
	dBuf     []int
}

// reset readies the scratch for one (pp, mbs) job, keeping all capacity.
func (t *task) reset(rs *regionState, mbs int) {
	t.mbs = mbs
	t.explored, t.buildFails = 0, 0
	rs.copyTo(&t.rs)
}

// resized returns buf at length n, contents unspecified, reusing its array
// when large enough.
func resized[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// init sizes the task's per-depth scratch buffers for one layer partition.
func (t *task) init(layers []int) {
	pp := len(layers)
	for len(t.combosBuf) < pp {
		t.combosBuf = append(t.combosBuf, nil)
		t.bestGBuf = append(t.bestGBuf, make([]replicaGroup, 0, 4))
	}
	t.partition = layers
	t.initDominance(layers)
}

// resetMemo starts a fresh DP-degree scan: the scan-local memo is cleared
// and the lane caps are recomputed from the scan parameters.
func (t *task) resetMemo(d, nb int) {
	// The table's slots are reused across scans (reset bumps its epoch, so
	// later scans insert without re-growing); entries never leak between
	// scans because stale epochs read as vacant.
	t.dpMemo.reset()
	if t.dpMemoSpill != nil {
		clear(t.dpMemoSpill)
	}
	clear(t.comboOK)
	t.setCaps(d, nb)
}

// setCaps computes the scan's TP spans (see tpRange), memo-key lane caps
// (see laneCaps) and suffix TP floors (minLo) from the partition, mbs, d
// and nb.
func (t *task) setCaps(d, nb int) {
	pp, types := len(t.partition), len(t.rs.types)
	c := &t.caps
	c.byType = resized(c.byType, pp*types)
	t.spans = resized(t.spans, pp*types)
	t.minLo = resized(t.minLo, pp*types)
	for ti := range t.rs.types {
		sum, lo := 0, 0
		for i := pp - 1; i >= 0; i-- {
			sp := t.tpRange(ti, i, nb)
			t.spans[i*types+ti] = sp
			sum += d * sp.hi
			c.byType[i*types+ti] = sum
			if sp.lo > 0 && (lo == 0 || sp.lo < lo) {
				lo = sp.lo
			}
			t.minLo[i*types+ti] = lo
		}
	}
	c.pack(types, t.rs.cells())
}

// searchDP explores DP degrees for one (layer partition, mbs) and publishes
// improvements of its local best to the shared incumbent. The H3/H4
// early stop is scoped to this task's own scan — never to the cross-worker
// incumbent — so the set of explored configurations is identical at any
// worker count and the heuristic ablations stay meaningful.
func (t *task) searchDP(layers []int, mbs int) {
	pl, rs := t.pl, &t.rs
	pp := len(layers)
	maxPer := pl.Cfg.GlobalBatch / mbs
	if maxPer < 1 {
		return
	}
	maxD := rs.totalGPUs() / pp // upper bound: 1 GPU per stage replica
	if maxD > maxPer {
		maxD = maxPer
	}
	if maxD < 1 {
		return
	}
	t.init(layers)
	var localBest *candidate
	noImprove := 0
	t.dBuf = pl.appendDCandidates(t.dBuf[:0], maxD)
	for _, d := range t.dBuf {
		if t.s.expired() {
			return
		}
		nb := memory.Microbatches(pl.Cfg.GlobalBatch, d, mbs)
		budget := pl.Opts.Constraints.MaxCostPerIter
		if budget > 0 && pp > budgetExactMaxPP {
			// Deep pipelines make the budget-threading recursion of
			// Listing 1 intractable; fall back to two memoized passes
			// (time-optimal, then cost-lean) and filter by the budget at
			// the end, which is where Listing 1 validates constraints too.
			budget = 0
		}
		// The previous degree's nodes died with its candidates.
		t.nodes.rewind()
		t.groups.rewind()
		var nodes [2]*dpNode
		nn := 0
		t.costLean = false
		t.resetMemo(d, nb)
		if n := t.solveDP(rs, layers, 0, 0, d, mbs, nb, budget); n != nil {
			nodes[nn] = n
			nn++
		}
		if pl.Opts.Constraints.MaxCostPerIter > 0 && budget == 0 {
			t.costLean = true
			t.resetMemo(d, nb)
			if n := t.solveDP(rs, layers, 0, 0, d, mbs, nb, 0); n != nil {
				nodes[nn] = n
				nn++
			}
			t.costLean = false
		}
		// Candidates are materialised and compared in the task's scratch.
		var cand *candidate
		won := 0
		for ni, node := range nodes[:nn] {
			plan, ok := t.buildPlan(node, layers, mbs, &t.plans[ni])
			if !ok {
				t.buildFails++
				continue
			}
			est, err := t.estimate(plan)
			if err != nil || !est.FitsMemory {
				continue
			}
			if !pl.Opts.Constraints.Satisfied(est.IterTime, est.Cost()) {
				continue
			}
			c := &t.cands[ni]
			*c = candidate{res: Result{Plan: plan, Estimate: est}}
			if cand == nil || pl.betterCand(c, cand) {
				cand, won = c, ni
			}
		}
		if cand == nil {
			continue
		}
		if localBest == nil || pl.betterCand(cand, localBest) {
			// The winner's plan buffer becomes the job's best; the displaced
			// one is free for the next degree's candidates.
			t.best = *cand
			t.plans[won], t.bestPlan = t.bestPlan, t.plans[won]
			localBest = &t.best
			t.s.offer(localBest)
			noImprove = 0
		} else if pl.Opts.Heuristics.H3H4DPOrdering {
			noImprove++
			// H3 early stop: throughput is unimodal in D, so two
			// consecutive non-improvements end the scan. Cost curves are
			// nearly flat in D under per-GPU-hour pricing (compute cost
			// ~ rate*D*T with T ~ 1/D), so H4 keeps the ascending order
			// but scans every degree — the list is only log2(GPUs) long.
			if pl.Opts.Objective != core.MinCost && noImprove >= 2 {
				return
			}
		}
	}
}

// estimate scores one materialised candidate plan with the simulator; each
// call counts as one explored node.
func (t *task) estimate(plan core.Plan) (core.Estimate, error) {
	t.explored++
	return t.pl.Sim.Estimate(plan)
}

// betterCand orders candidates by the objective, breaking metric ties by
// the other metric and exact ties by the plan signature — a stable key, so
// the chosen plan does not depend on which worker finished first. The
// signature is resolved lazily: most comparisons are decided by the
// metrics alone.
func (pl *Planner) betterCand(a, b *candidate) bool {
	ae, be := &a.res.Estimate, &b.res.Estimate
	switch pl.Opts.Objective {
	case core.MinCost:
		if ae.Cost() != be.Cost() {
			return ae.Cost() < be.Cost()
		}
		if ae.IterTime != be.IterTime {
			return ae.IterTime < be.IterTime
		}
	default:
		if ae.IterTime != be.IterTime {
			return ae.IterTime < be.IterTime
		}
		if ae.Cost() != be.Cost() {
			return ae.Cost() < be.Cost()
		}
	}
	return a.signature() < b.signature()
}

// nodeBetter orders DP nodes: by the time metric normally, by resource
// cost-rate (ties broken by time) in the budget fallback's cost-lean pass.
// Exact ties fall through to the node signature so the DP's winner is
// stable under any enumeration interleaving.
func (t *task) nodeBetter(a, b *dpNode, nb int) bool {
	if t.costLean {
		if a.rateUSD != b.rateUSD {
			return a.rateUSD < b.rateUSD
		}
	}
	if am, bm := a.metric(nb), b.metric(nb); am != bm {
		return am < bm
	}
	if a.rateUSD != b.rateUSD {
		return a.rateUSD < b.rateUSD
	}
	return t.sigLess(a, b)
}

// statsBetter is nodeBetter over a not-yet-materialised candidate (aStats,
// aChoice, aChild) against the current best (bStats, bChoice, bChild). The
// chain signatures are compared piecewise — head choice first, then the
// already-materialised children — which appendChoiceSig's terminator makes
// equivalent to comparing whole chain strings.
func (t *task) statsBetter(aStats nodeStats, aChoice stageChoice, aChild *dpNode,
	bStats nodeStats, bChoice stageChoice, bChild *dpNode, nb int) bool {
	if t.costLean {
		if aStats.rateUSD != bStats.rateUSD {
			return aStats.rateUSD < bStats.rateUSD
		}
	}
	if am, bm := aStats.metric(nb), bStats.metric(nb); am != bm {
		return am < bm
	}
	if aStats.rateUSD != bStats.rateUSD {
		return aStats.rateUSD < bStats.rateUSD
	}
	t.sigA = appendChoiceSig(t.sigA[:0], aChoice)
	t.sigB = appendChoiceSig(t.sigB[:0], bChoice)
	if c := bytes.Compare(t.sigA, t.sigB); c != 0 {
		return c < 0
	}
	if aChild == nil || bChild == nil {
		return false // identical leaf chains: not better
	}
	return t.sigLess(aChild, bChild)
}
