package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/sailor"
)

// DriveFleetStorm is the shared "one op" of the fleet-rebalance benchmarks
// (BenchmarkFleetRebalance and the fleet_rebalance rows of
// BENCH_planner.json): reset the service's fleet ledger to an empty pool
// with the given per-job cap, then replay the trace through it — every
// event mutates the fleet and a Rebalance pass replans the broken and
// waiting jobs warm in priority order. Returns the accumulated planner
// telemetry. Jobs keep their warm caches across calls, so repeated drives
// measure the warm steady state of Service.Rebalance.
func DriveFleetStorm(svc *sailor.Service, tr *trace.Trace, jobCap int) (explored, hits int, err error) {
	if err := svc.SetFleet(cluster.NewPool(), jobCap); err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	for _, ev := range tr.Events {
		if _, err := svc.FleetEvent(ev); err != nil {
			return 0, 0, err
		}
		steps, err := svc.Rebalance(ctx)
		if err != nil {
			return 0, 0, err
		}
		for _, s := range steps {
			if s.Result != nil {
				explored += s.Result.Explored
				hits += s.Result.CacheHits
			}
		}
	}
	return explored, hits, nil
}

// DriveFleetColdRebalance is the "one op" of the cold fleet-rebalance
// benchmarks (BenchmarkFleetRebalanceCold and the fleet_rebalance_cold row
// of BENCH_planner.json): reopen one job per GPU type — dropping every
// warm cache and lease — reset the ledger to the given pool, then run a
// single Rebalance pass that must admit all jobs from scratch, one cold
// search per job in admission order. Returns the accumulated planner
// telemetry.
func DriveFleetColdRebalance(svc *sailor.Service, m sailor.Model, types []core.GPUType, pool *cluster.Pool) (explored, hits int, err error) {
	for i, g := range types {
		name := fmt.Sprintf("cold-%d", i)
		_ = svc.CloseJob(name)
		if err := svc.OpenJob(name, m, []core.GPUType{g}, len(types)-i); err != nil {
			return 0, 0, err
		}
	}
	if err := svc.SetFleet(pool, 0); err != nil {
		return 0, 0, err
	}
	steps, err := svc.Rebalance(context.Background())
	if err != nil {
		return 0, 0, err
	}
	for _, s := range steps {
		if s.Result == nil {
			return 0, 0, fmt.Errorf("cold rebalance did not admit job %q: %s", s.Job, s.Error)
		}
		explored += s.Result.Explored
		hits += s.Result.CacheHits
	}
	return explored, hits, nil
}
