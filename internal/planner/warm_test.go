package planner

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
)

// warmLab builds one shared evaluator plus a planner factory bound to it,
// so warm and cold planners agree on the fingerprint's evaluator instance.
func warmLab(t *testing.T, cfg model.Config, gpus ...core.GPUType) func(opts Options) *Planner {
	t.Helper()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := sim.New(cfg, prof)
	return func(opts Options) *Planner {
		if opts.Heuristics == (Heuristics{}) {
			opts.Heuristics = AllHeuristics()
		}
		return New(cfg, ev, opts)
	}
}

// stormPools materialises the availability snapshot after every event of a
// preemption-storm trace — the replan sequence an elastic controller sees.
func stormPools(seed int64) []*cluster.Pool {
	return trace.PreemptionStorm().Trace(seed).DistinctPools()
}

// warmCounters is the (Explored, CacheHits) a warm replan reports: a pool
// the cache has stored is a lookup, (0, 1); a first visit searches cold and
// reports the cold search's Explored and no hit. seen holds the pool keys
// the cache has stored; warmCounters adds pool's.
func warmCounters(seen map[string]bool, pool *cluster.Pool, cold Result) [2]int {
	k := poolKey(pool)
	if seen[k] {
		return [2]int{0, 1}
	}
	seen[k] = true
	return [2]int{cold.Explored, 0}
}

// TestReplanMatchesColdPlanning is the warm-start contract: replaying a
// preemption storm, every warm replan returns the identical plan and
// estimate cold planning returns on the same pool, a first visit searches
// exactly as cold planning does, and a pool the storm returns to is a
// stored-result lookup.
func TestReplanMatchesColdPlanning(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	warmPl := mk(Options{Objective: core.MaxThroughput, Warm: NewWarmCache()})

	pools := stormPools(1)
	if len(pools) < 6 {
		t.Fatalf("storm produced only %d distinct pools", len(pools))
	}
	var prev core.Plan
	seen := map[string]bool{}
	hits := 0
	for i, pool := range pools {
		warm, err := warmPl.Replan(prev, pool)
		if err != nil {
			t.Fatalf("pool %d: warm replan: %v", i, err)
		}
		cold, err := mk(Options{Objective: core.MaxThroughput}).Plan(pool)
		if err != nil {
			t.Fatalf("pool %d: cold plan: %v", i, err)
		}
		if got, want := warm.Plan.String(), cold.Plan.String(); got != want {
			t.Errorf("pool %d: warm plan differs from cold:\nwarm: %s\ncold: %s", i, got, want)
		}
		if warm.Estimate.IterTime != cold.Estimate.IterTime || warm.Estimate.Cost() != cold.Estimate.Cost() {
			t.Errorf("pool %d: warm estimate differs from cold", i)
		}
		if !warm.WarmStart {
			t.Errorf("pool %d: WarmStart not reported", i)
		}
		if got, want := [2]int{warm.Explored, warm.CacheHits}, warmCounters(seen, pool, cold); got != want {
			t.Errorf("pool %d: (explored, hits) = %v, want %v", i, got, want)
		}
		hits += warm.CacheHits
		prev = warm.Plan
	}
	if hits == 0 {
		t.Error("the storm never returned to a pool the cache had stored")
	}
	if got := warmPl.Opts.Warm.Entries(); got != len(seen) {
		t.Errorf("the cache stores %d results for %d distinct pools", got, len(seen))
	}
}

// TestReplanDeterministicAcrossWorkers: a sequential replan chain produces
// bit-identical telemetry — plans, Explored, CacheHits — at any worker
// count, because no worker writes the warm cache while a search runs.
func TestReplanDeterministicAcrossWorkers(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	pools := stormPools(2)
	type obs struct {
		plan     string
		explored int
		hits     int
	}
	var runs [2][]obs
	for ri, workers := range []int{1, 8} {
		pl := mk(Options{Objective: core.MaxThroughput, Workers: workers, Warm: NewWarmCache()})
		var prev core.Plan
		for _, pool := range pools {
			res, err := pl.Replan(prev, pool)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			runs[ri] = append(runs[ri], obs{res.Plan.String(), res.Explored, res.CacheHits})
			prev = res.Plan
		}
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Errorf("replan %d diverges between workers=1 and workers=8:\n%+v\n%+v",
				i, runs[0][i], runs[1][i])
		}
	}
}

// TestWarmCacheFingerprintMismatch: a planner whose configuration differs
// from the cache's binding must ignore it and still plan correctly.
func TestWarmCacheFingerprintMismatch(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	warm := NewWarmCache()
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)

	first, err := mk(Options{Objective: core.MaxThroughput, Warm: warm}).Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !first.WarmStart {
		t.Error("compatible planner should report WarmStart")
	}
	other := mk(Options{Objective: core.MinCost, Warm: warm})
	res, err := other.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStart || res.CacheHits != 0 {
		t.Errorf("mismatched fingerprint must search cold: %+v", res)
	}
	cold, err := mk(Options{Objective: core.MinCost}).Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.String() != cold.Plan.String() {
		t.Error("mismatched-cache plan differs from cold plan")
	}
}

// TestReplanFallbackSeed: when the search is cancelled before finding
// anything, a previous plan that still fits the pool is returned instead of
// an error — the elastic controller never downgrades to "no plan" on a
// transient cutoff.
func TestReplanFallbackSeed(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	pl := mk(Options{Objective: core.MaxThroughput})
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	first, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pl.ReplanContext(ctx, first.Plan, pool)
	if err != nil {
		t.Fatalf("cancelled replan with a valid previous plan should fall back, got %v", err)
	}
	if res.Plan.String() != first.Plan.String() {
		t.Errorf("fallback should return the previous plan:\n%s\n%s", first.Plan, res.Plan)
	}

	// Without a usable seed (pool lost the GPUs the plan needs), the
	// cancelled search still errors.
	shrunk := cluster.NewPool().Set(zoneA, core.A100, 2)
	if _, err := pl.ReplanContext(ctx, first.Plan, shrunk); err == nil {
		t.Error("cancelled replan without a feasible seed must error")
	}
}

// TestReplanSeedRespectsConstraints: a previous plan violating the current
// constraints is not used as a fallback.
func TestReplanSeedRespectsConstraints(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	pl := mk(Options{Objective: core.MaxThroughput})
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	first, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	tight := mk(Options{
		Objective:   core.MaxThroughput,
		Constraints: core.Constraints{MinThroughput: 2 / first.Estimate.IterTime},
	})
	seed := tight.seedFromPrev(&first.Plan, pool)
	if seed != nil {
		t.Error("seed violating MinThroughput must be rejected")
	}
}

// TestEstKeyDistinguishesReplicaOrder: Plan.String groups identical
// replicas within a stage, so it collapses orderings the simulator
// distinguishes (pipeline k pairs replica k across stages). PlanKey must be
// the order-preserving serialization, never the display string.
func TestEstKeyDistinguishesReplicaOrder(t *testing.T) {
	mk := func(zones ...string) core.Plan {
		st := core.StagePlan{FirstLayer: 0, NumLayers: 24}
		for _, z := range zones {
			st.Replicas = append(st.Replicas, core.StageReplica{
				GPU: core.A100, TP: 1, Zone: core.Zone{Region: "r", Name: z},
			})
		}
		return core.Plan{MicroBatchSize: 2, Stages: []core.StagePlan{st}}
	}
	a := mk("c", "a", "b", "c")
	b := mk("c", "c", "a", "b")
	if a.String() != b.String() {
		t.Fatalf("precondition: display strings should collide:\n%s\n%s", a, b)
	}
	if PlanKey(a) == PlanKey(b) {
		t.Errorf("PlanKey collapsed distinct replica orderings: %s", PlanKey(a))
	}
}

// TestWarmCacheConcurrentReplans: many goroutines replanning through one
// shared cache stay race-free (run under -race), each returns the plan cold
// planning returns for its pool, and the cache serves them one at a time:
// every distinct pool is searched exactly once, by whichever goroutine took
// the cache first, with the (Explored, CacheHits) of one sequential warm
// chain over the same pools, and every other reply is a stored-result hit.
func TestWarmCacheConcurrentReplans(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	pools := stormPools(3)
	if len(pools) > 6 {
		pools = pools[:6]
	}
	coldPlans := make([]string, len(pools))
	chain := make([][2]int, len(pools))
	seq := mk(Options{Objective: core.MaxThroughput, Workers: 2, Warm: NewWarmCache()})
	for i, p := range pools {
		cold, err := mk(Options{Objective: core.MaxThroughput}).Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		coldPlans[i] = cold.Plan.String()
		res, err := seq.Replan(core.Plan{}, p)
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = [2]int{res.Explored, res.CacheHits}
	}

	const goroutines = 4
	warm := NewWarmCache()
	var got [goroutines][][2]int
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pl := mk(Options{Objective: core.MaxThroughput, Workers: 2, Warm: warm})
			var prev core.Plan
			for i, pool := range pools {
				res, err := pl.Replan(prev, pool)
				if err != nil {
					errs <- err
					return
				}
				if res.Plan.String() != coldPlans[i] {
					t.Errorf("goroutine %d pool %d: warm plan diverged from cold", g, i)
				}
				got[g] = append(got[g], [2]int{res.Explored, res.CacheHits})
				prev = res.Plan
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// A pool the chain served whole (one sharing an earlier pool's key) is
	// searched by nobody.
	hit := [2]int{0, 1}
	for i := range pools {
		want, searched := 1, 0
		if chain[i] == hit {
			want = 0
		}
		for g := range got {
			if r := got[g][i]; r != hit {
				searched++
				if r != chain[i] {
					t.Errorf("pool %d: searched reply (explored, hits) = %v, sequential chain %v", i, r, chain[i])
				}
			}
		}
		if searched != want {
			t.Errorf("pool %d searched %d times across %d goroutines, want %d", i, searched, goroutines, want)
		}
	}
}

// TestWarmCacheWaiterHonoursContext: a replan queued behind a search that
// holds the cache gives up when its deadline passes, with the answer of a
// search cut off before it began — the previous plan when it still fits,
// else the deadline error — and leaves the cache untouched; once the cache
// is free, replans search and store as usual.
func TestWarmCacheWaiterHonoursContext(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	warm := NewWarmCache()
	pl := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: warm})
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	prev, err := mk(Options{Objective: core.MaxThroughput, Workers: 1}).Plan(pool)
	if err != nil {
		t.Fatal(err)
	}

	const wait = 20 * time.Millisecond
	if err := warm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, seeded := range []bool{true, false} {
		var from core.Plan
		if seeded {
			from = prev.Plan
		}
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		deadline, _ := ctx.Deadline()
		res, err := pl.ReplanContext(ctx, from, pool)
		end := time.Now()
		cancel()
		if seeded {
			if err != nil {
				t.Fatalf("seeded waiter: %v", err)
			}
			if !reflect.DeepEqual(res.Plan, prev.Plan) || res.Explored != 0 || res.WarmStart || res.CacheHits != 0 {
				t.Errorf("seeded waiter: got %s (explored %d, warm %v, hits %d), want the previous plan unsearched",
					res.Plan, res.Explored, res.WarmStart, res.CacheHits)
			}
			// The wait ends no earlier than the deadline, so a SearchTime
			// that counts it reaches back from the call's return to before
			// the deadline; one that starts after the wait cannot.
			if start := end.Add(-res.SearchTime); !start.Before(deadline) {
				t.Errorf("seeded waiter: SearchTime %v starts %v after the cache wait's deadline; it omits the wait",
					res.SearchTime, start.Sub(deadline))
			}
		} else if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("unseeded waiter: err = %v, want one wrapping context.DeadlineExceeded", err)
		}
		// The test holds the cache, so reading its map here is race-free.
		if len(warm.res) != 0 {
			t.Errorf("seeded=%v waiter changed the cache: %d results", seeded, len(warm.res))
		}
	}
	warm.release()

	res, err := pl.Replan(prev.Plan, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Plan, prev.Plan) || !res.WarmStart || res.Explored == 0 {
		t.Errorf("replan after release: got %s (explored %d, warm %v), want a warm search of the cold plan",
			res.Plan, res.Explored, res.WarmStart)
	}
	if n := warm.Entries(); n != 1 {
		t.Errorf("replan after release stored %d results, want 1", n)
	}
	again, err := pl.Replan(res.Plan, pool)
	if err != nil {
		t.Fatal(err)
	}
	if again.Explored != 0 || again.CacheHits != 1 {
		t.Errorf("second replan after release: (explored, hits) = (%d, %d), want a stored-result hit (0, 1)",
			again.Explored, again.CacheHits)
	}
}

// TestWarmVsColdParityDiurnalCycle walks a whole diurnal-wave cycle twice
// at workers 1 and 8: every warm Replan — searching on a pool's first
// visit, served from stored results once its pool repeats — returns the
// plan and estimate a cold Plan of the same pool returns, with the search
// counters warmCounters computes.
func TestWarmVsColdParityDiurnalCycle(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	sc, ok := trace.ScenarioByName("diurnal-wave")
	if !ok {
		t.Fatal("diurnal-wave scenario not registered")
	}
	pools := sc.TraceWith(1, trace.ScenarioOpts{Base: 16}).DistinctPools()
	cold := make([]Result, len(pools))
	for i, pool := range pools {
		res, err := mk(Options{Objective: core.MaxThroughput, Workers: 1}).Plan(pool)
		if err != nil {
			t.Fatalf("pool %d: cold plan: %v", i, err)
		}
		cold[i] = res
	}
	for _, workers := range []int{1, 8} {
		pl := mk(Options{Objective: core.MaxThroughput, Workers: workers, Warm: NewWarmCache()})
		var prev core.Plan
		seen := map[string]bool{}
		revisits := 0
		for pass := 0; pass < 2; pass++ {
			for i, pool := range pools {
				warm, err := pl.Replan(prev, pool)
				if err != nil {
					t.Fatalf("workers=%d pass %d pool %d: %v", workers, pass, i, err)
				}
				if !reflect.DeepEqual(warm.Plan, cold[i].Plan) {
					t.Errorf("workers=%d pass %d pool %d: warm plan differs from cold:\nwarm: %s\ncold: %s",
						workers, pass, i, warm.Plan, cold[i].Plan)
				}
				if !reflect.DeepEqual(warm.Estimate, cold[i].Estimate) {
					t.Errorf("workers=%d pass %d pool %d: warm estimate %+v, cold %+v",
						workers, pass, i, warm.Estimate, cold[i].Estimate)
				}
				want := warmCounters(seen, pool, cold[i])
				if got := [2]int{warm.Explored, warm.CacheHits}; got != want {
					t.Errorf("workers=%d pass %d pool %d: (explored, hits) = %v, want %v", workers, pass, i, got, want)
				}
				if pass == 0 && want[1] == 1 {
					revisits++
				}
				prev = warm.Plan
			}
		}
		// The cycle returns to pools it already visited within one pass.
		if revisits == 0 {
			t.Errorf("workers=%d: the first pass revisited no pool", workers)
		}
	}
}

// TestWarmCacheOverCapStartsFresh drives the stored results to
// warmMaxResults: the store that would overflow starts a fresh map holding
// only the overflowing search's result, a replan of that retained pool is a
// lookup identical to cold planning, and a dropped pool is searched again.
func TestWarmCacheOverCapStartsFresh(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	warm := NewWarmCache()
	pl := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: warm})
	pools := stormPools(1)
	first, err := pl.Replan(core.Plan{}, pools[0]) // binds the cache, stores pools[0]'s result
	if err != nil {
		t.Fatal(err)
	}
	// Fill the result map to the cap with results no search will ask for.
	for i := len(warm.res); i < warmMaxResults; i++ {
		warm.store("filler"+strconv.Itoa(i), &Result{})
	}
	if got := len(warm.res); got != warmMaxResults {
		t.Fatalf("filled cache holds %d results, want %d", got, warmMaxResults)
	}

	over, err := pl.Replan(first.Plan, pools[1])
	if err != nil {
		t.Fatal(err)
	}
	if over.Explored == 0 || over.CacheHits != 0 {
		t.Fatalf("precondition: the second pool must be searched, got (explored, hits) = (%d, %d)", over.Explored, over.CacheHits)
	}
	if _, ok := warm.res[poolKey(pools[1])]; !ok || len(warm.res) != 1 {
		t.Fatalf("over-cap store kept %d results (new pool stored: %v); want a fresh map holding only the new pool", len(warm.res), ok)
	}

	again, err := pl.Replan(over.Plan, pools[1])
	if err != nil {
		t.Fatal(err)
	}
	cold, err := mk(Options{Objective: core.MaxThroughput, Workers: 1}).Plan(pools[1])
	if err != nil {
		t.Fatal(err)
	}
	if !memoHit(again) {
		t.Errorf("replan of the retained pool: (explored, hits) = (%d, %d), want a stored-result hit", again.Explored, again.CacheHits)
	}
	if !reflect.DeepEqual(again.Plan, cold.Plan) || !reflect.DeepEqual(again.Estimate, cold.Estimate) {
		t.Errorf("replan of the retained pool differs from cold:\nwarm: %s\ncold: %s", again.Plan, cold.Plan)
	}
	dropped, err := pl.Replan(again.Plan, pools[0])
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Explored != first.Explored || dropped.CacheHits != 0 {
		t.Errorf("replan of the dropped pool: (explored, hits) = (%d, %d), want a search like the first (%d, 0)",
			dropped.Explored, dropped.CacheHits, first.Explored)
	}
}
