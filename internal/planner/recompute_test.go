package planner

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/memory"
	"repro/internal/model"
)

// Activation recomputation (paper §6 future work) is part of the plan wire
// format: the planner never emits a Recompute plan, but a plan that carries
// the flag must be priced consistently — ~1/3 extra compute for a much
// smaller footprint — by the memory model, the simulator and ground truth.

func TestRecomputeShrinksFootprint(t *testing.T) {
	cfg := model.GPTNeo27B()
	base := memory.WorkerShape{Layers: 16, StageIdx: 0, PP: 2, TP: 1, MicroBS: 4, NumMicro: 64}
	re := base
	re.Recompute = true
	full := memory.WorkerFootprint(cfg, base)
	small := memory.WorkerFootprint(cfg, re)
	if small.Activations >= full.Activations/4 {
		t.Errorf("recompute activations %d should be far below full %d",
			small.Activations, full.Activations)
	}
	// Parameter-side memory is untouched.
	if small.Weights != full.Weights || small.OptimizerStates != full.OptimizerStates {
		t.Error("recompute must not change parameter-state memory")
	}
}

func TestRecomputeCostsCompute(t *testing.T) {
	// On a pool where both modes fit, the normal plan must be faster:
	// rematerialisation replays the forward pass.
	cfg := model.OPT350M()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	re := res.Plan
	re.Recompute = true
	normal, err := pl.Sim.Estimate(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pl.Sim.Estimate(re)
	if err != nil {
		t.Fatal(err)
	}
	if rec.IterTime <= normal.IterTime {
		t.Errorf("recompute %v should be slower than normal %v", rec.IterTime, normal.IterTime)
	}
	ratio := rec.IterTime / normal.IterTime
	if ratio > 1.6 {
		t.Errorf("recompute overhead %vx too high; forward replay is ~1.33x", ratio)
	}
	if rec.PeakMemory >= normal.PeakMemory {
		t.Error("recompute must reduce peak memory")
	}
}

func TestRecomputeGroundTruthAgreement(t *testing.T) {
	// The simulator's recompute model must stay calibrated to ground truth.
	cfg := model.OPT350M()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	plan := core.Plan{MicroBatchSize: 2, Recompute: true}
	for i := 0; i < 2; i++ {
		plan.Stages = append(plan.Stages, core.StagePlan{
			FirstLayer: i * 12, NumLayers: 12,
			Replicas: []core.StageReplica{
				{GPU: core.A100, TP: 1, Zone: zoneA},
				{GPU: core.A100, TP: 1, Zone: zoneA},
			},
		})
	}
	est, err := pl.Sim.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := groundtruth.New(cfg).Measure(plan)
	if err != nil {
		t.Fatal(err)
	}
	rel := (est.IterTime - meas.IterTime) / meas.IterTime
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.12 {
		t.Errorf("recompute calibration off by %.1f%%", rel*100)
	}
}
