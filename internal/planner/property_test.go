package planner

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// Property suite: structural invariants of every plan the planner emits,
// checked over randomized pools.

func TestPlannerInvariantsProperty(t *testing.T) {
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100, core.V100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(cfg, prof)

	check := func(nA, nV uint8, secondZone bool) bool {
		a := int(nA%32) + 4
		v := int(nV % 32)
		pool := cluster.NewPool().Set(zoneA, core.A100, a)
		z := zoneA
		if secondZone {
			z = zoneB
		}
		if v > 0 {
			pool.Set(z, core.V100, v)
		}
		pl := New(cfg, s, Options{Objective: core.MaxThroughput, Heuristics: AllHeuristics()})
		res, err := pl.Plan(pool)
		if err != nil {
			return true // infeasible pools may legitimately fail
		}
		// I1: structural validity.
		if err := res.Plan.Validate(cfg.Layers); err != nil {
			t.Logf("invalid plan for pool a=%d v=%d: %v", a, v, err)
			return false
		}
		// I2: never exceeds availability.
		if !pool.CanFit(res.Plan) {
			t.Logf("plan oversubscribes pool a=%d v=%d: %s", a, v, res.Plan)
			return false
		}
		// I3: never OOM by its own estimate (Sailor's zero-OOM guarantee).
		if !res.Estimate.FitsMemory {
			t.Logf("plan marked OOM for a=%d v=%d", a, v)
			return false
		}
		// I4: H5 — every stage's replicas stay within one region.
		for _, st := range res.Plan.Stages {
			region := st.Replicas[0].Zone.Region
			for _, r := range st.Replicas {
				if r.Zone.Region != region {
					t.Logf("stage spans regions for a=%d v=%d", a, v)
					return false
				}
			}
		}
		// I5: H1 — TP within the node.
		for _, st := range res.Plan.Stages {
			for _, r := range st.Replicas {
				if r.TP > 4 {
					t.Logf("TP %d exceeds node size", r.TP)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: giving the planner strictly more of the same resources never
// hurts its achieved objective (throughput is monotone in availability).
func TestPlannerMonotoneInResources(t *testing.T) {
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(cfg, prof)
	prev := 0.0
	for _, n := range []int{4, 8, 16, 32, 64} {
		pl := New(cfg, s, Options{Objective: core.MaxThroughput, Heuristics: AllHeuristics()})
		res, err := pl.Plan(cluster.NewPool().Set(zoneA, core.A100, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		tput := res.Estimate.Throughput()
		if tput < prev*0.999 {
			t.Errorf("throughput dropped when growing pool to %d: %v < %v", n, tput, prev)
		}
		prev = tput
	}
}
