package planner

// Allocation-regression tests and micro-benchmarks for the DP hot path.
// The ceilings are part of the perf contract of the profile-guided
// overhaul: the packed-key memo probe is allocation-free, so a memo-served
// solveDP pass must stay at zero allocations and a cold pass must stay
// within a small constant per explored node.

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// dpLab builds an initialised search/task pair over a pool, mirroring the
// setup runPass/searchDP perform.
func dpLab(tb testing.TB, pool *cluster.Pool, gpus ...core.GPUType) (*Planner, *search, *task, *regionState, []int) {
	tb.Helper()
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	pl := New(cfg, sim.New(cfg, prof), Options{
		Objective: core.MaxThroughput, Heuristics: AllHeuristics(), Workers: 1,
	})
	rs := newRegionState(pool, true)
	s := newSearch(pl, context.Background())
	tb.Cleanup(s.stop)
	s.bindState(rs, pool)
	layers := core.SplitLayers(cfg.Layers, 4)
	t := s.taskFor(0)
	t.reset(rs, 2)
	t.init(layers)
	t.resetMemo(2, cfg.GlobalBatch/(2*2))
	return pl, s, t, rs, layers
}

// TestSolveDPMemoHitAllocFree: a solveDP pass served entirely from the
// scan memo performs zero allocations — the packed dpKey probe never
// touches the heap.
func TestSolveDPMemoHitAllocFree(t *testing.T) {
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	_, _, tk, _, layers := dpLab(t, pool, core.A100)
	work := &tk.rs
	nb := tk.pl.Cfg.GlobalBatch / (2 * 2)
	if n := tk.solveDP(work, layers, 0, 0, 2, 2, nb, 0); n == nil {
		t.Fatal("cold pass found no solution")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tk.solveDP(work, layers, 0, 0, 2, 2, nb, 0)
	})
	if allocs != 0 {
		t.Errorf("memo-served solveDP allocates %.1f times per pass; want 0", allocs)
	}
}

// TestSolveDPColdAllocCeiling: a cold solveDP pass over a 16-GPU pool
// stays within a small allocation budget (the clone-per-combo
// implementation it replaced spent thousands here).
func TestSolveDPColdAllocCeiling(t *testing.T) {
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	_, _, tk, _, layers := dpLab(t, pool, core.A100)
	work := &tk.rs
	nb := tk.pl.Cfg.GlobalBatch / (2 * 2)
	const ceiling = 256
	allocs := testing.AllocsPerRun(20, func() {
		tk.resetMemo(2, nb)
		if n := tk.solveDP(work, layers, 0, 0, 2, 2, nb, 0); n == nil {
			t.Fatal("no solution")
		}
	})
	if allocs > ceiling {
		t.Errorf("cold solveDP pass allocates %.0f times; ceiling %d", allocs, ceiling)
	}
}

// BenchmarkDPMemoHit measures the memoized fast path of the DP: the packed
// key build plus one map probe per stage state.
func BenchmarkDPMemoHit(b *testing.B) {
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	_, _, tk, _, layers := dpLab(b, pool, core.A100)
	work := &tk.rs
	nb := tk.pl.Cfg.GlobalBatch / (2 * 2)
	if n := tk.solveDP(work, layers, 0, 0, 2, 2, nb, 0); n == nil {
		b.Fatal("cold pass found no solution")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.solveDP(work, layers, 0, 0, 2, 2, nb, 0)
	}
}

// TestReplanMemoHitAllocCeiling: a replan of a pool the warm cache has
// already solved is a lookup. It costs the fingerprint, the pool key and the
// copy of the stored result — no region state, no search.
func TestReplanMemoHitAllocCeiling(t *testing.T) {
	const ceiling = 24
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := New(cfg, sim.New(cfg, prof), Options{
		Objective: core.MaxThroughput, Heuristics: AllHeuristics(), Workers: 1, Warm: NewWarmCache(),
	})
	pool := cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneB, core.A100, 16)
	first, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	allocs := testing.AllocsPerRun(100, func() {
		if res, err = pl.Replan(first.Plan, pool); err != nil {
			t.Fatal(err)
		}
	})
	if res.Explored != 0 || res.CacheHits != 1 {
		t.Fatalf("precondition: (explored, hits) = (%d, %d), want a stored-result hit (0, 1)", res.Explored, res.CacheHits)
	}
	t.Logf("stored-result hit: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("stored-result hit allocates %.0f times; ceiling %d", allocs, ceiling)
	}
}

// TestScratchReusedAcrossJobs: within one search, a (pp, mbs) job that needs
// no more capacity than the jobs before it runs entirely in the scratch they
// left — readying the task allocates nothing, and the arena chunks, node
// slab, DP table, TP spans and quote buffer are the same memory afterwards.
func TestScratchReusedAcrossJobs(t *testing.T) {
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	pl, s, tk, rs, deep := dpLab(t, pool, core.A100)
	shallow := core.SplitLayers(pl.Cfg.Layers, 2)
	run := func(layers []int) {
		tk.reset(rs, 2)
		tk.searchDP(layers, 2)
	}
	run(deep)
	if s.best == nil || len(tk.nodes.chunks) == 0 || len(tk.groups.chunks) == 0 || tk.dpMemo.slots == nil {
		t.Fatal("precondition: the first job must search cold and fill the scratch")
	}
	type identity struct {
		nodes, groups int
		node          *dpNode
		group         *replicaGroup
		slot          *dpSlot
		span          *tpSpan
		quote         *tpQuote
	}
	snap := func() identity {
		return identity{
			len(tk.nodes.chunks), len(tk.groups.chunks),
			&tk.nodes.chunks[0][:1][0], &tk.groups.chunks[0][:1][0], &tk.dpMemo.slots[0],
			&tk.spans[0], &tk.quoteBuf[:1][0],
		}
	}
	before := snap()
	for _, layers := range [][]int{shallow, deep} {
		run(layers)
		if after := snap(); after != before {
			t.Errorf("pp=%d job after a pp=%d job re-allocated scratch:\nbefore %+v\nafter  %+v", len(layers), len(deep), before, after)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			tk.reset(rs, 2)
			tk.init(layers)
		}); allocs != 0 {
			t.Errorf("readying the scratch for a pp=%d job allocates %.1f times; want 0", len(layers), allocs)
		}
	}
}
