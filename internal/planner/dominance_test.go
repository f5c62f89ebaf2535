package planner

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// TestDominancePruningExact is the dominance-pruning admissibility oracle. On
// heterogeneous and geo-distributed pool shapes the search with dominance
// pruning (the default) must return the identical plan and estimate the
// dominance-disabled search returns: the completion bound only skips
// compositions that lose strictly, so ties and winners are untouched.
// Explored never grows, and must shrink strictly on the heterogeneous64
// shape the optimisation targets (the BENCH_planner.json row).
func TestDominancePruningExact(t *testing.T) {
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100, core.V100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := sim.New(cfg, prof)
	cases := []struct {
		name string
		pool *cluster.Pool
		opts Options
		// mustShrink marks the shapes where the dominance bound is required
		// to fire, not merely allowed to.
		mustShrink bool
	}{
		{
			name:       "heterogeneous64",
			pool:       cluster.NewPool().Set(zoneA, core.A100, 32).Set(zoneA, core.V100, 32),
			opts:       Options{Objective: core.MaxThroughput},
			mustShrink: true,
		},
		{
			name: "heterogeneous-geo",
			pool: cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneW, core.V100, 16),
			opts: Options{Objective: core.MaxThroughput},
		},
		{
			name: "geo-min-cost",
			pool: cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneW, core.A100, 16),
			opts: Options{Objective: core.MinCost},
		},
		{
			name: "heterogeneous-min-cost",
			pool: cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneA, core.V100, 16),
			opts: Options{Objective: core.MinCost},
		},
		{
			name: "heterogeneous-budget",
			pool: cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneA, core.V100, 16),
			opts: Options{Objective: core.MaxThroughput, Constraints: core.Constraints{MaxCostPerIter: 0.5}},
		},
	}
	anyPruned := false
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Heuristics = AllHeuristics()
			pruned := tc.opts
			unpruned := tc.opts
			unpruned.DisableDominancePruning = true
			a, errA := New(cfg, ev, pruned).Plan(tc.pool)
			b, errB := New(cfg, ev, unpruned).Plan(tc.pool)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("error mismatch: pruned=%v unpruned=%v", errA, errB)
			}
			if errA != nil {
				return
			}
			if a.Plan.String() != b.Plan.String() {
				t.Errorf("dominance pruning changed the chosen plan:\npruned:   %s\nunpruned: %s", a.Plan, b.Plan)
			}
			if a.Estimate.IterTime != b.Estimate.IterTime || a.Estimate.Cost() != b.Estimate.Cost() {
				t.Errorf("dominance pruning changed the estimate: %+v vs %+v", a.Estimate, b.Estimate)
			}
			if a.Explored > b.Explored {
				t.Errorf("pruned search explored more than unpruned: %d > %d", a.Explored, b.Explored)
			}
			if tc.mustShrink && a.Explored >= b.Explored {
				t.Errorf("dominance bound never fired on %s: explored %d vs %d", tc.name, a.Explored, b.Explored)
			}
			if a.Explored < b.Explored {
				anyPruned = true
			}
		})
	}
	if !anyPruned {
		t.Error("dominance bounds never fired across the whole suite; pruning is dead code")
	}
}
