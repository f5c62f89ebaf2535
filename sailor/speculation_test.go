package sailor

import (
	"context"
	"testing"
	"time"
)

// diurnalPools materialises the distinct pools of three full diurnal-wave
// periods — the cyclic availability signal the speculation forecaster is
// built to lock onto.
func diurnalPools(t *testing.T, max int) []*Pool {
	t.Helper()
	sc, ok := ScenarioByName("diurnal-wave")
	if !ok {
		t.Fatal("diurnal-wave scenario not registered")
	}
	pools := sc.TraceWith(1, ScenarioOpts{Horizon: 72 * time.Hour, Base: 16}).DistinctPools()
	if len(pools) > max {
		pools = pools[:max]
	}
	return pools
}

// TestSpeculativeReplanParity is the ablation oracle of the speculation
// layer: a diurnal-wave replan chain driven with speculation on and off
// returns byte-identical results — plan, estimate, Explored, CacheHits —
// with only the SpeculativeHit marker distinguishing served prefetches.
// The cyclic trace must produce real hits, and the spec_* counters must
// account for them exactly.
func TestSpeculativeReplanParity(t *testing.T) {
	pools := diurnalPools(t, 60)
	type step struct {
		canon string
		hit   bool
	}
	run := func(without bool) ([]step, ServiceStats) {
		svc := NewService(ServiceConfig{Workers: 2, MaxConcurrent: 4})
		svc.noSpeculation = without
		if err := svc.OpenJob("tenant", OPT350M(), []GPUType{A100}, 0); err != nil {
			t.Fatal(err)
		}
		var prev Plan
		steps := make([]step, 0, len(pools))
		for i, pool := range pools {
			// Quiesce between requests so each prefetch round resolves
			// before the request it predicts — the deterministic-stepping
			// contract replay tools follow.
			svc.Quiesce()
			res, err := svc.Replan(context.Background(), "tenant", prev, pool, MaxThroughput, Constraints{})
			if err != nil {
				t.Fatalf("without=%v step %d: %v", without, i, err)
			}
			hit := res.SpeculativeHit
			res.SpeculativeHit = false
			steps = append(steps, step{canonicalResult(t, res), hit})
			prev = res.Plan
		}
		svc.Quiesce()
		st, err := svc.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return steps, st
	}
	on, onStats := run(false)
	off, offStats := run(true)
	hits := 0
	for i := range on {
		if on[i].canon != off[i].canon {
			t.Errorf("step %d: speculation changed the result:\non:  %s\noff: %s", i, on[i].canon, off[i].canon)
		}
		if off[i].hit {
			t.Errorf("step %d: SpeculativeHit with speculation disabled", i)
		}
		if on[i].hit {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no step of a cyclic trace was answered from the speculation cache")
	}
	if onStats.SpecHits != uint64(hits) {
		t.Errorf("SpecHits=%d but %d results carried the marker", onStats.SpecHits, hits)
	}
	if onStats.SpecPrecomputed < onStats.SpecHits {
		t.Errorf("SpecPrecomputed=%d < SpecHits=%d", onStats.SpecPrecomputed, onStats.SpecHits)
	}
	if onStats.SpecHits+onStats.SpecMisses != uint64(len(pools)) {
		t.Errorf("SpecHits+SpecMisses=%d, want one consult per replan (%d)",
			onStats.SpecHits+onStats.SpecMisses, len(pools))
	}
	if offStats.SpecHits != 0 || offStats.SpecMisses != 0 || offStats.SpecPrecomputed != 0 {
		t.Errorf("ablated service still speculated: hits=%d misses=%d precomputed=%d",
			offStats.SpecHits, offStats.SpecMisses, offStats.SpecPrecomputed)
	}
}
