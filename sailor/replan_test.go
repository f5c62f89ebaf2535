package sailor

import (
	"context"
	"sync"
	"testing"
)

// replayPools materialises the distinct availability snapshots of a named
// scenario — the replan sequence an elastic controller would issue.
func replayPools(t *testing.T, name string, seed int64, max int) []*Pool {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	pools := sc.Trace(seed).DistinctPools()
	if len(pools) > max {
		pools = pools[:max]
	}
	return pools
}

// TestReplanMatchesPlan: the facade's warm replan chain returns exactly
// what cold Plan returns on every pool of a preemption storm, and the
// cache visibly answers the pools the storm returns to.
func TestReplanMatchesPlan(t *testing.T) {
	sys, err := New(OPT350M(), []GPUType{A100}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	pools := replayPools(t, "preemption-storm", 1, 16)
	var prev Plan
	hits := 0
	for i, pool := range pools {
		warm, err := sys.Replan(prev, pool, MaxThroughput, Constraints{})
		if err != nil {
			t.Fatalf("pool %d: %v", i, err)
		}
		cold, err := sys.Plan(pool, MaxThroughput, Constraints{})
		if err != nil {
			t.Fatalf("pool %d: %v", i, err)
		}
		if got, want := warm.Plan.String(), cold.Plan.String(); got != want {
			t.Errorf("pool %d: warm != cold:\n%s\n%s", i, got, want)
		}
		hits += warm.CacheHits
		prev = warm.Plan
	}
	if hits == 0 {
		t.Error("System.Replan never hit the warm cache")
	}
}

// TestReplanConcurrentWithPlanContext is the race-coverage satellite:
// concurrent Replan chains on one shared System against concurrent
// PlanContext calls must be data-race free (run under -race), and every
// result must equal cold planning on the same pool.
func TestReplanConcurrentWithPlanContext(t *testing.T) {
	sys, err := New(OPT350M(), []GPUType{A100}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	pools := replayPools(t, "preemption-storm", 3, 6)
	cold := make([]string, len(pools))
	for i, p := range pools {
		res, err := sys.Plan(p, MaxThroughput, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res.Plan.String()
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev Plan
			for i, pool := range pools {
				res, err := sys.Replan(prev, pool, MaxThroughput, Constraints{})
				if err != nil {
					t.Errorf("replanner %d pool %d: %v", g, i, err)
					return
				}
				if res.Plan.String() != cold[i] {
					t.Errorf("replanner %d pool %d: warm plan diverged from cold", g, i)
				}
				prev = res.Plan
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		for i, pool := range pools {
			wg.Add(1)
			go func(g, i int, pool *Pool) {
				defer wg.Done()
				res, err := sys.PlanContext(context.Background(), pool, MaxThroughput, Constraints{})
				if err != nil {
					t.Errorf("planner %d pool %d: %v", g, i, err)
					return
				}
				if res.Plan.String() != cold[i] {
					t.Errorf("planner %d pool %d: plan diverged from cold", g, i)
				}
			}(g, i, pool)
		}
	}
	wg.Wait()
}

// TestScenarioFacade: the re-exported scenario registry and constructors
// agree, and every scenario's canonical trace feeds the planner a non-empty
// initial or eventual pool.
func TestScenarioFacade(t *testing.T) {
	byCtor := map[string]Scenario{
		"gcp-a100":         ScenarioGCPA100(),
		"preemption-storm": ScenarioPreemptionStorm(),
		"diurnal-wave":     ScenarioDiurnalWave(),
		"zone-outage":      ScenarioZoneOutage(),
		"hetero-arrivals":  ScenarioHeteroArrivals(),
		"geo-shift":        ScenarioGeoShift(),
	}
	listed := map[string]bool{}
	for _, s := range Scenarios() {
		listed[s.Name] = true
	}
	for name, sc := range byCtor {
		if sc.Name != name {
			t.Errorf("constructor for %q returns scenario named %q", name, sc.Name)
		}
		if !listed[name] {
			t.Errorf("scenario %q not in Scenarios()", name)
		}
		tr := sc.Trace(1)
		if tr.PoolAt(tr.Horizon).TotalGPUs() == 0 {
			t.Errorf("scenario %q ends with an empty pool", name)
		}
	}
}
