// Elastic: replay a named availability scenario and let the controller
// reconfigure the job kill-free as capacity churns (§4.4, §5.5). Every
// replan after the first is warm-started: the previous plan seeds the
// incumbent and the planner's warm cache answers pools earlier replans
// already solved, which the per-reconfig cache-hit counts make visible.
package main

import (
	"fmt"
	"log"

	"repro/sailor"
)

func main() {
	log.SetFlags(0)

	// The preemption-storm scenario: spot capacity repeatedly collapses to
	// a fraction of the grant and recovers in bursts. Swap in any other
	// registered scenario (sailor.Scenarios(), cmd/sailor-replay -list).
	scenario := sailor.ScenarioPreemptionStorm()
	tr := scenario.Trace(42)

	job := sailor.OPT350M()
	sys, err := sailor.New(job, scenario.GPUs)
	if err != nil {
		log.Fatal(err)
	}

	ctrl := sys.NewController()
	rep, err := ctrl.RunElastic(tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scenario %q: trained %d iterations over %.1fh of availability churn\n",
		scenario.Name, rep.IterationsDone, tr.Horizon.Hours())
	fmt.Printf("rollback losses: %d iterations; planning %.3fs total, %d warm-cache hits\n",
		rep.LostIterations, rep.PlanningSeconds, rep.PlanCacheHits)
	for i, t := range rep.Reconfigs {
		gpus := 0
		if i < len(rep.PlansUsed) {
			gpus = rep.PlansUsed[i].GPUCount()
		}
		fmt.Printf("reconfig #%2d -> %2d GPUs: total %5.2fs "+
			"(plan %.3fs/%d hits, cleanup %.1fs, broadcast %.2fs, groups %.2fs, model %.1fs, data %.1fs)\n",
			i, gpus, t.Total(), t.Planning, t.PlanCacheHits, t.Cleanup, t.Broadcast,
			t.GroupInit, t.ModelRedef, t.Dataloader)
	}
}
