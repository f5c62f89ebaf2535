package main

import (
	"repro/internal/wire"
	"repro/sailor"
)

// reportDoc is the -json shape of an in-process replay's elastic-run report
// (sailor.Report). No rpc message carries it, so it lives with its only
// writer rather than in the wire schema; its plans use the wire plan shape.
type reportDoc struct {
	IterationsDone   int               `json:"iterations_done"`
	VirtualSeconds   float64           `json:"virtual_seconds"`
	Reconfigs        []phaseTimingsDoc `json:"reconfigs"`
	PlansUsed        []wire.Plan       `json:"plans_used"`
	LostIterations   int               `json:"lost_iterations"`
	CheckpointsTaken int               `json:"checkpoints_taken"`
	PlanningSeconds  float64           `json:"planning_seconds"`
	PlanCacheHits    int               `json:"plan_cache_hits"`
}

// phaseTimingsDoc is the -json shape of one reconfiguration's breakdown
// (sailor.PhaseTimings).
type phaseTimingsDoc struct {
	Planning        float64 `json:"planning"`
	Cleanup         float64 `json:"cleanup"`
	Broadcast       float64 `json:"broadcast"`
	GroupInit       float64 `json:"group_init"`
	ModelRedef      float64 `json:"model_redef"`
	Dataloader      float64 `json:"dataloader"`
	CkptLoad        float64 `json:"ckpt_load"`
	RolledBackIters int     `json:"rolled_back_iters"`
	PlanCacheHits   int     `json:"plan_cache_hits"`
	PlanExplored    int     `json:"plan_explored"`
}

// fromPhaseTimings converts a reconfiguration breakdown to its -json shape.
func fromPhaseTimings(t sailor.PhaseTimings) phaseTimingsDoc {
	return phaseTimingsDoc{
		Planning:        t.Planning,
		Cleanup:         t.Cleanup,
		Broadcast:       t.Broadcast,
		GroupInit:       t.GroupInit,
		ModelRedef:      t.ModelRedef,
		Dataloader:      t.Dataloader,
		CkptLoad:        t.CkptLoad,
		RolledBackIters: t.RolledBackIters,
		PlanCacheHits:   t.PlanCacheHits,
		PlanExplored:    t.PlanExplored,
	}
}

// fromReport converts an elastic-run report to its -json shape. Nil slices
// stay nil (encoding as null) and empty ones stay empty.
func fromReport(r sailor.Report) reportDoc {
	out := reportDoc{
		IterationsDone:   r.IterationsDone,
		VirtualSeconds:   r.VirtualSeconds,
		LostIterations:   r.LostIterations,
		CheckpointsTaken: r.CheckpointsTaken,
		PlanningSeconds:  r.PlanningSeconds,
		PlanCacheHits:    r.PlanCacheHits,
	}
	if r.Reconfigs != nil {
		out.Reconfigs = make([]phaseTimingsDoc, len(r.Reconfigs))
		for i, t := range r.Reconfigs {
			out.Reconfigs[i] = fromPhaseTimings(t)
		}
	}
	if r.PlansUsed != nil {
		out.PlansUsed = make([]wire.Plan, len(r.PlansUsed))
		for i, p := range r.PlansUsed {
			out.PlansUsed[i] = wire.FromPlan(p)
		}
	}
	return out
}
