package planner

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

func guardLab(t *testing.T) (model.Config, *sim.Simulator) {
	t.Helper()
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, sim.New(cfg, prof)
}

func guardPlan(z core.Zone, n, tp int) core.Plan {
	reps := make([]core.StageReplica, n)
	for i := range reps {
		reps[i] = core.StageReplica{GPU: core.A100, TP: tp, Zone: z}
	}
	return core.Plan{MicroBatchSize: 1, Stages: []core.StagePlan{
		{FirstLayer: 0, NumLayers: 24, Replicas: reps},
	}}
}

func TestCapacityGuardCheck(t *testing.T) {
	z := cluster.GCPZone("us-central1", 'a')
	g := NewCapacityGuard(cluster.NewPool().Set(z, core.A100, 8))
	if err := g.Check(guardPlan(z, 2, 4)); err != nil {
		t.Errorf("fitting plan rejected: %v", err)
	}
	err := g.Check(guardPlan(z, 4, 4))
	if err == nil {
		t.Fatal("oversubscribing plan admitted")
	}
	if !strings.Contains(err.Error(), "us-central1-a") {
		t.Errorf("guard error should name the deficient cell: %v", err)
	}
	// nil guard and nil view admit everything.
	if err := NewCapacityGuard(nil).Check(guardPlan(z, 100, 4)); err != nil {
		t.Errorf("nil guard must admit: %v", err)
	}
	var zero *CapacityGuard
	if err := zero.Check(guardPlan(z, 100, 4)); err != nil {
		t.Errorf("nil receiver must admit: %v", err)
	}
}

// TestCapacityGuardClonesView: mutating the pool after NewCapacityGuard
// must not change admissions mid-search.
func TestCapacityGuardClonesView(t *testing.T) {
	z := cluster.GCPZone("us-central1", 'a')
	view := cluster.NewPool().Set(z, core.A100, 8)
	g := NewCapacityGuard(view)
	view.Add(z, core.A100, -8)
	if err := g.Check(guardPlan(z, 2, 4)); err != nil {
		t.Errorf("guard must hold its own snapshot: %v", err)
	}
}

// TestGuardInSearch: a guard matching the search pool never perturbs the
// result; a guard strictly smaller than the pool rejects the final plan and
// drops a warm seed that no longer fits the fleet's free view.
func TestGuardInSearch(t *testing.T) {
	cfg, ev := guardLab(t)
	z := cluster.GCPZone("us-central1", 'a')
	pool := cluster.NewPool().Set(z, core.A100, 8)
	base := Options{Objective: core.MaxThroughput, Heuristics: AllHeuristics(), Workers: 1}

	plain, err := New(cfg, ev, base).Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	guarded := base
	guarded.Guard = NewCapacityGuard(pool)
	same, err := New(cfg, ev, guarded).Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if same.Plan.String() != plain.Plan.String() || same.Explored != plain.Explored {
		t.Errorf("matching guard changed the search: %s (%d) vs %s (%d)",
			same.Plan, same.Explored, plain.Plan, plain.Explored)
	}

	// A free view with no capacity rejects whatever the search finds.
	tight := base
	tight.Guard = NewCapacityGuard(cluster.NewPool())
	if _, err := New(cfg, ev, tight).Plan(pool); err == nil ||
		!strings.Contains(err.Error(), "capacity guard") {
		t.Errorf("empty-view guard = %v, want capacity-guard error", err)
	}

	// A warm seed that exceeds the guard view is not used as a fallback.
	pl := New(cfg, ev, tight)
	if seed := pl.seedFromPrev(&plain.Plan, pool, ""); seed != nil {
		t.Error("seed exceeding the guard view must be dropped")
	}
}
