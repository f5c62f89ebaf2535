package planner

// Tests of the warm cache's stored search results: a replan of a pool the
// cache has already solved is a lookup, and nothing a search did not
// finish, and nothing outside the cache's binding, is ever served. That a
// hit returns exactly what a cold search returns, at any worker count, is
// TestWarmVsColdParityDiurnalCycle's to pin.

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

// memoHit reports whether a result was served whole from a stored search.
func memoHit(r Result) bool { return r.Explored == 0 && r.CacheHits == 1 && r.WarmStart }

// TestReplanMemoHitIsDetached: a caller mutating the plan and estimate a
// hit returned cannot change what the next hit returns.
func TestReplanMemoHitIsDetached(t *testing.T) {
	mk := warmLab(t, model.OPT350M(), core.A100)
	pl := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: NewWarmCache()})
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	first, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	want := detachResult(first)
	first.Plan.Stages[0].Replicas[0].TP = 99 // the searched result's copy
	for i := 0; i < 2; i++ {
		hit, err := pl.Plan(pool)
		if err != nil {
			t.Fatal(err)
		}
		if !memoHit(hit) {
			t.Fatalf("hit %d: (explored, hits) = (%d, %d), want a stored-result hit", i, hit.Explored, hit.CacheHits)
		}
		if !reflect.DeepEqual(hit.Plan, want.Plan) || !reflect.DeepEqual(hit.Estimate, want.Estimate) {
			t.Fatalf("hit %d returned a plan a caller had mutated:\n%s\nwant %s", i, hit.Plan, want.Plan)
		}
		hit.Plan.Stages[0].Replicas[0].Zone.Name = "mutated"
		hit.Plan.Stages[0].NumLayers++
		hit.Estimate.StageTimes[0] = -1
	}
}

// cuttingEvaluator runs hook once, on the second plan estimate of a search:
// the first candidate has become the incumbent, so a search the hook cuts
// returns a plan without having run to completion.
type cuttingEvaluator struct {
	Evaluator
	calls atomic.Int32
	hook  func()
}

func (c *cuttingEvaluator) Estimate(p core.Plan) (core.Estimate, error) {
	if c.calls.Add(1) == 2 {
		c.hook()
	}
	return c.Evaluator.Estimate(p)
}

// TestReplanMemoSkipsCutSearches: a search cut by its Deadline or by a
// cancelled context publishes no result, even though it returns the best
// plan it found, so the next replan of the pool searches again; only a
// search that runs to completion is stored.
func TestReplanMemoSkipsCutSearches(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	full, err := mk(Options{Objective: core.MaxThroughput, Workers: 1}).Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cuts := map[string]struct {
		ctx  context.Context
		opts Options
		hook func()
	}{
		// The second estimate is slow and outlives the deadline.
		"deadline": {context.Background(), Options{Deadline: 20 * time.Millisecond}, func() { time.Sleep(100 * time.Millisecond) }},
		// The second estimate cancels the caller's context, then is slow:
		// the search latches cancellation on a watcher goroutine it exposes
		// no event for, so the slow call is what lets the latch land.
		"cancel": {ctx, Options{}, func() { cancel(); time.Sleep(50 * time.Millisecond) }},
	}
	for name, c := range cuts {
		ev := &cuttingEvaluator{Evaluator: mk(Options{}).Sim, hook: c.hook}
		warm := NewWarmCache()
		opts := c.opts
		opts.Objective, opts.Heuristics, opts.Workers, opts.Warm = core.MaxThroughput, AllHeuristics(), 1, warm
		cut, err := New(cfg, ev, opts).PlanContext(c.ctx, pool)
		if err != nil || cut.Explored >= full.Explored {
			t.Fatalf("%s: precondition: the cut search should return its incumbent early; explored %d of %d, err %v",
				name, cut.Explored, full.Explored, err)
		}
		if n := len(warm.res); n != 0 {
			t.Errorf("%s: a cut search stored %d results", name, n)
		}
		opts.Deadline = 0
		again, err := New(cfg, ev, opts).Plan(pool)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if memoHit(again) || len(warm.res) != 1 || !reflect.DeepEqual(again.Plan, full.Plan) {
			t.Errorf("%s: the search after a cut one was served %v and stored %d results; want a full search that stores one",
				name, memoHit(again), len(warm.res))
		}
	}
}

// TestReplanMemoKeysOnRegion: two pools that differ only in a zone's
// region bucket differently, so they never share a stored result.
func TestReplanMemoKeysOnRegion(t *testing.T) {
	mk := warmLab(t, model.OPT350M(), core.A100)
	pl := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: NewWarmCache()})
	east := core.Zone{Region: "us-east1", Name: zoneB.Name}
	one := cluster.NewPool().Set(zoneA, core.A100, 8).Set(zoneB, core.A100, 8)
	two := cluster.NewPool().Set(zoneA, core.A100, 8).Set(east, core.A100, 8)
	if one.String() != two.String() {
		t.Fatalf("precondition: the pools should render alike:\n%s\n%s", one, two)
	}
	if _, err := pl.Plan(one); err != nil {
		t.Fatal(err)
	}
	res, err := pl.Plan(two)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := mk(Options{Objective: core.MaxThroughput, Workers: 1}).Plan(two)
	if err != nil {
		t.Fatal(err)
	}
	if memoHit(res) || len(pl.Opts.Warm.res) != 2 {
		t.Errorf("a pool with a moved zone was served %v, cache holds %d results; want a miss stored apart",
			memoHit(res), len(pl.Opts.Warm.res))
	}
	if !reflect.DeepEqual(res.Plan, cold.Plan) || !reflect.DeepEqual(res.Estimate, cold.Estimate) {
		t.Errorf("moved-zone pool differs from cold:\nwarm: %s\ncold: %s", res.Plan, cold.Plan)
	}
}

// TestReplanMemoIgnoresZeroCells: a pool carrying an explicit zero-count
// cell is the pool without it, so it hits its zero-free twin; a negative
// cell is not.
func TestReplanMemoIgnoresZeroCells(t *testing.T) {
	mk := warmLab(t, model.OPT350M(), core.A100)
	pl := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: NewWarmCache()})
	plain := cluster.NewPool().Set(zoneA, core.A100, 16)
	zeros := cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneA, core.V100, 0).Set(zoneB, core.A100, 0)
	first, err := pl.Plan(plain)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Plan(zeros)
	if err != nil {
		t.Fatal(err)
	}
	if !memoHit(res) || len(pl.Opts.Warm.res) != 1 {
		t.Errorf("zero-cell twin: (explored, hits) = (%d, %d), %d results stored; want a hit on the one stored",
			res.Explored, res.CacheHits, len(pl.Opts.Warm.res))
	}
	if !reflect.DeepEqual(res.Plan, first.Plan) {
		t.Errorf("zero-cell twin returned %s, want %s", res.Plan, first.Plan)
	}
	// A negative cell, which the wire accepts and Pool.Entries skips, is
	// still read by the search, so it is not absent.
	mixed := cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneB, core.V100, 8)
	if neg := mixed.Clone().Set(zoneA, core.V100, -2); poolKey(neg) == poolKey(mixed) {
		t.Errorf("a pool with a negative cell shares its key %q with the pool without it", poolKey(mixed))
	}
}

// TestReplanMemoNeverCrossesFingerprints: a planner with another objective
// or other constraints never receives a result the cache stored for the
// planner it is bound to; it searches cold and matches cold planning.
func TestReplanMemoNeverCrossesFingerprints(t *testing.T) {
	mk := warmLab(t, model.OPT350M(), core.A100)
	warm := NewWarmCache()
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	bound, err := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: warm}).Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"objective":   {Objective: core.MinCost, Workers: 1},
		"constraints": {Objective: core.MaxThroughput, Workers: 1, Constraints: core.Constraints{MaxIterTime: 2 * bound.Estimate.IterTime}},
	} {
		cold, err := mk(opts).Plan(pool)
		if err != nil {
			t.Fatal(err)
		}
		opts.Warm = warm
		res, err := mk(opts).Plan(pool)
		if err != nil {
			t.Fatal(err)
		}
		if res.WarmStart || res.CacheHits != 0 {
			t.Errorf("%s: another fingerprint was served from the cache: %+v", name, res)
		}
		if !reflect.DeepEqual(res.Plan, cold.Plan) || !reflect.DeepEqual(res.Estimate, cold.Estimate) {
			t.Errorf("%s: plan differs from cold:\nwarm: %s\ncold: %s", name, res.Plan, cold.Plan)
		}
	}
}

// TestReplanMemoHitChecksGuard: the capacity guard still judges a stored
// plan — a hit whose plan exceeds the guard's free view surfaces the guard
// error instead of the plan.
func TestReplanMemoHitChecksGuard(t *testing.T) {
	mk := warmLab(t, model.OPT350M(), core.A100)
	warm := NewWarmCache()
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	if _, err := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: warm}).Plan(pool); err != nil {
		t.Fatal(err)
	}
	// Without its DP memos and estimates the cache can answer this pool
	// only from the stored result: a search would explore nodes.
	warm.dp, warm.est = map[warmDPKey]*dpNode{}, map[string]*estEntry{}
	guarded := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: warm,
		Guard: NewCapacityGuard(cluster.NewPool().Set(zoneA, core.A100, 1))})
	res, err := guarded.Plan(pool)
	if err == nil || !strings.Contains(err.Error(), "capacity guard") {
		t.Errorf("guarded hit = %v, want the capacity-guard error", err)
	}
	if res.Explored != 0 {
		t.Errorf("guarded replan explored %d nodes; want the stored result judged", res.Explored)
	}
}
