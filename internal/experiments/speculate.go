package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/sailor"
)

// DriveSpeculativeReplans is the shared driver of the speculative-replan
// benchmarks (BenchmarkReplanSpeculative and the replan_speculative row of
// BENCH_planner.json): replay an availability-pool sequence through one
// job's Replan chain, quiescing the service's prefetch layer between steps
// so every speculation round resolves before the request it predicts
// arrives. Returns how many steps were answered from the speculation cache
// and the final plan (the prev of a continuation drive).
func DriveSpeculativeReplans(svc *sailor.Service, job string, pools []*cluster.Pool, prev core.Plan) (specHits int, last core.Plan, err error) {
	ctx := context.Background()
	for i, p := range pools {
		svc.Quiesce()
		res, err := svc.Replan(ctx, job, prev, p, core.MaxThroughput, core.Constraints{})
		if err != nil {
			return specHits, prev, fmt.Errorf("replan %d: %w", i, err)
		}
		if res.SpeculativeHit {
			specHits++
		}
		prev = res.Plan
	}
	svc.Quiesce()
	return specHits, prev, nil
}
