package planner

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

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

// TestReplanMatchesColdPlanning is the warm-start contract: replaying a
// preemption storm, every warm replan returns the identical plan and
// estimate cold planning returns on the same pool, while the cache visibly
// serves subtrees (CacheHits > 0, Explored strictly below cold).
func TestReplanMatchesColdPlanning(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	warmPl := mk(Options{Objective: core.MaxThroughput, Warm: NewWarmCache()})

	pools := stormPools(1)
	if len(pools) < 6 {
		t.Fatalf("storm produced only %d distinct pools", len(pools))
	}
	var prev core.Plan
	totalHits, hitsBelowCold := 0, 0
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
		totalHits += warm.CacheHits
		if warm.CacheHits > 0 && warm.Explored < cold.Explored {
			hitsBelowCold++
		}
		prev = warm.Plan
	}
	if totalHits == 0 {
		t.Error("warm cache never served a subtree across the whole storm")
	}
	if hitsBelowCold == 0 {
		t.Error("cache hits never reduced the explored node count")
	}
	if warmPl.Opts.Warm.Entries() == 0 {
		t.Error("no DP memos were persisted")
	}
}

// TestReplanDeterministicAcrossWorkers: a sequential replan chain produces
// bit-identical telemetry — plans, Explored, CacheHits — at any worker
// count, because warm reads come from a start-of-search snapshot.
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
	seed := tight.seedFromPrev(&first.Plan, pool, "")
	if seed != nil {
		t.Error("seed violating MinThroughput must be rejected")
	}
}

// TestEstKeyDistinguishesReplicaOrder: Plan.String groups identical
// replicas within a stage, so it collapses orderings the simulator
// distinguishes (pipeline k pairs replica k across stages). The estimate
// cache must key on the order-preserving serialization, never the display
// string.
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
	if estKey(a) == estKey(b) {
		t.Errorf("estKey collapsed distinct replica orderings: %s", estKey(a))
	}
	re := a
	re.Recompute = true
	if estKey(a) == estKey(re) {
		t.Error("estKey must include the recompute flag")
	}
}

// TestWarmCacheConcurrentReplans: many goroutines replanning through one
// shared cache stay race-free (run under -race) and each returns the same
// plan cold planning returns for its pool.
func TestWarmCacheConcurrentReplans(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	warm := NewWarmCache()
	pools := stormPools(3)
	if len(pools) > 6 {
		pools = pools[:6]
	}
	coldPlans := make([]string, len(pools))
	for i, p := range pools {
		cold, err := mk(Options{Objective: core.MaxThroughput}).Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		coldPlans[i] = cold.Plan.String()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
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
				prev = res.Plan
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// diurnalParity is the (Explored, CacheHits) of every replan of two passes
// over the diurnal-wave base-16 cycle. The misses' counters were recorded at
// the commit before warm entries owned their memory: where copies live must
// not change what is searched, so they are pinned exactly. Every pool the
// cycle revisits — pools 5-8 and 15-20 of the first pass, all of the second
// — is served whole from the stored search results: (0, 1).
var diurnalParity = [2][21][2]int{
	{{613, 0}, {310, 135}, {247, 173}, {238, 184}, {573, 165}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {180, 85}, {163, 76},
		{106, 40}, {74, 57}, {56, 30}, {51, 30}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}},
	{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1},
		{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}},
}

// TestWarmVsColdParityDiurnalCycle walks a whole diurnal-wave cycle twice
// at workers 1 and 8: every warm Replan — computing its entries on the
// first pass, served from stored results once its pool repeats — returns
// the plan and estimate a cold Plan of the same pool returns, with the
// recorded search counters.
func TestWarmVsColdParityDiurnalCycle(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	sc, ok := trace.ScenarioByName("diurnal-wave")
	if !ok {
		t.Fatal("diurnal-wave scenario not registered")
	}
	pools := sc.TraceWith(1, trace.ScenarioOpts{Base: 16}).DistinctPools()
	if len(pools) != len(diurnalParity[0]) {
		t.Fatalf("cycle has %d pools, the recorded counters cover %d", len(pools), len(diurnalParity[0]))
	}
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
		for pass := range diurnalParity {
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
				if got, want := [2]int{warm.Explored, warm.CacheHits}, diurnalParity[pass][i]; got != want {
					t.Errorf("workers=%d pass %d pool %d: (explored, hits) = %v, recorded %v", workers, pass, i, got, want)
				}
				prev = warm.Plan
			}
		}
	}
}

// TestWarmCacheOverCapKeepsWorkingSet drives a cache past warmMaxEntries: the
// merge that would overflow drops the old generation and retains exactly
// the overflowing search's working set — sized for it, not for the cap —
// and the following replan, served from that set alone, is bit-identical to
// cold planning.
func TestWarmCacheOverCapKeepsWorkingSet(t *testing.T) {
	cfg := model.OPT350M()
	mk := warmLab(t, cfg, core.A100)
	warm := NewWarmCache()
	pl := mk(Options{Objective: core.MaxThroughput, Workers: 1, Warm: warm})
	pools := stormPools(1)
	first, err := pl.Replan(core.Plan{}, pools[0]) // binds the cache, files pools[0]'s entries
	if err != nil {
		t.Fatal(err)
	}
	// Fill the DP generation to the cap with entries no search will ask for.
	var filler warmPending
	for i := len(warm.dp); i < warmMaxEntries; i++ {
		filler.dp = append(filler.dp, warmEntry[warmDPKey, *dpNode]{key: warmDPKey{shape: "filler", pp: int32(i)}})
	}
	warm.merge(pl.fingerprint(), filler)
	if got := len(warm.dp); got != warmMaxEntries {
		t.Fatalf("filled cache holds %d DP entries, want %d", got, warmMaxEntries)
	}

	// A search over a new pool publishes hits and fresh entries; one fresh
	// key is enough to overflow.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	over, err := pl.Replan(first.Plan, pools[1])
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if over.Explored == 0 {
		t.Fatal("precondition: the second pool must compute new entries")
	}
	if got := len(warm.dp); got >= warmMaxEntries/2 {
		t.Fatalf("over-cap merge kept %d DP entries: the old generation was not dropped", got)
	}
	for k := range warm.dp {
		if k.shape == "filler" {
			t.Fatal("over-cap merge retained an entry outside the last search's working set")
		}
	}
	// A cap-sized map alone is > 10 MB; the whole replan stays far below.
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4<<20 {
		t.Errorf("over-cap replan allocated %d bytes: the next generation is sized for the cap, not its contents", grew)
	}

	// The retained set is that search's whole working set: replanning the
	// same pool explores nothing, touches no other key, and matches cold.
	// Its stored result is dropped first, so the replan searches the set.
	kept := len(warm.dp) + len(warm.est)
	warm.res = map[string]*Result{}
	again, err := pl.Replan(over.Plan, pools[1])
	if err != nil {
		t.Fatal(err)
	}
	cold, err := mk(Options{Objective: core.MaxThroughput, Workers: 1}).Plan(pools[1])
	if err != nil {
		t.Fatal(err)
	}
	if again.Explored != 0 || again.CacheHits == 0 {
		t.Errorf("replan over the retained set: explored %d, hits %d; want 0 explored, served from the cache",
			again.Explored, again.CacheHits)
	}
	if warm.Entries() != kept {
		t.Errorf("a fully-served replan changed the cache: %d entries, was %d", warm.Entries(), kept)
	}
	if !reflect.DeepEqual(again.Plan, cold.Plan) || !reflect.DeepEqual(again.Estimate, cold.Estimate) {
		t.Errorf("replan after eviction differs from cold:\nwarm: %s\ncold: %s", again.Plan, cold.Plan)
	}
}
