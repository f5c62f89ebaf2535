package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/profiler"
)

var (
	zoneA = core.Zone{Region: "us-central1", Name: "us-central1-a"}
	zoneB = core.Zone{Region: "us-central1", Name: "us-central1-b"}
	zoneW = core.Zone{Region: "us-west1", Name: "us-west1-a"}
)

// uniformPlan builds a plan with identical replicas per stage.
func uniformPlan(g core.GPUType, z core.Zone, pp, dp, tp, mbs, layers int) core.Plan {
	per := layers / pp
	stages := make([]core.StagePlan, pp)
	rem := layers - per*pp
	first := 0
	for i := range stages {
		n := per
		if i < rem {
			n++
		}
		reps := make([]core.StageReplica, dp)
		for j := range reps {
			reps[j] = core.StageReplica{GPU: g, TP: tp, Zone: z}
		}
		stages[i] = core.StagePlan{FirstLayer: first, NumLayers: n, Replicas: reps}
		first += n
	}
	return core.Plan{MicroBatchSize: mbs, Stages: stages}
}

func newSim(t *testing.T, cfg model.Config, gpus ...core.GPUType) *Simulator {
	t.Helper()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, prof)
}

func TestEstimateBasics(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	plan := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	e, err := s.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if e.IterTime <= 0 {
		t.Error("iteration time must be positive")
	}
	if e.ComputeCost <= 0 {
		t.Error("compute cost must be positive")
	}
	if e.EgressCost != 0 {
		t.Errorf("single-zone plan bills no egress, got %v", e.EgressCost)
	}
	if !e.FitsMemory {
		t.Error("OPT-350M PP=2 on A100 should fit")
	}
	if len(e.StageTimes) != 2 {
		t.Errorf("StageTimes = %v, want 2 entries", e.StageTimes)
	}
}

func TestNumMicrobatches(t *testing.T) {
	cfg := model.OPT350M() // gbs 2048
	plan := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	if got := memory.NumMicrobatches(cfg, plan); got != 256 {
		t.Errorf("NumMicrobatches = %d, want 2048/(4*2)=256", got)
	}
	odd := uniformPlan(core.A100, zoneA, 1, 65, 1, 8, cfg.Layers)
	if got := memory.NumMicrobatches(cfg, odd); got != 4 {
		t.Errorf("NumMicrobatches = %d, want ceil(2048/(65*8))=4", got)
	}
	if got := memory.NumMicrobatches(cfg, core.Plan{}); got != 0 {
		t.Errorf("empty plan microbatches = %d, want 0", got)
	}
}

func TestMoreDataParallelismRaisesThroughputThenSaturates(t *testing.T) {
	// Heuristic H3's premise: throughput grows with DP, with diminishing
	// returns as all-reduce costs grow.
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	var prev float64
	for _, dp := range []int{1, 2, 4, 8} {
		plan := uniformPlan(core.A100, zoneA, 2, dp, 1, 2, cfg.Layers)
		e, err := s.Estimate(plan)
		if err != nil {
			t.Fatalf("dp=%d: %v", dp, err)
		}
		if !e.FitsMemory {
			t.Fatalf("dp=%d: plan must fit memory", dp)
		}
		tp := e.Throughput()
		if tp <= prev {
			t.Fatalf("throughput should grow with DP in-zone: dp=%d %v <= %v", dp, tp, prev)
		}
		prev = tp
	}
}

func TestStragglerGPUDominates(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100, core.V100)
	pure := uniformPlan(core.A100, zoneA, 2, 2, 2, 2, cfg.Layers)
	mixed := uniformPlan(core.A100, zoneA, 2, 2, 2, 2, cfg.Layers)
	// Replace stage 1 entirely with V100s: its compute time bounds the
	// steady phase.
	for j := range mixed.Stages[1].Replicas {
		mixed.Stages[1].Replicas[j].GPU = core.V100
	}
	ep, err := s.Estimate(pure)
	if err != nil {
		t.Fatal(err)
	}
	em, err := s.Estimate(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if em.IterTime <= ep.IterTime {
		t.Errorf("V100 stage must slow the pipeline: %v <= %v", em.IterTime, ep.IterTime)
	}
	if em.StragglerStage != 1 {
		t.Errorf("straggler stage = %d, want 1", em.StragglerStage)
	}
}

func TestBalancedHeterogeneousBeatsNaive(t *testing.T) {
	// Load balancing: giving the V100 stage fewer layers narrows the
	// straggler gap — the effect Sailor's planner exploits (§5.2.2).
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100, core.V100)
	naive := uniformPlan(core.A100, zoneA, 2, 2, 2, 2, cfg.Layers)
	for j := range naive.Stages[1].Replicas {
		naive.Stages[1].Replicas[j].GPU = core.V100
	}
	balanced := naive
	balanced.Stages = []core.StagePlan{
		{FirstLayer: 0, NumLayers: 18, Replicas: naive.Stages[0].Replicas},
		{FirstLayer: 18, NumLayers: 6, Replicas: naive.Stages[1].Replicas},
	}
	en, err := s.Estimate(naive)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := s.Estimate(balanced)
	if err != nil {
		t.Fatal(err)
	}
	if eb.IterTime >= en.IterTime {
		t.Errorf("balanced split %v should beat 50/50 %v", eb.IterTime, en.IterTime)
	}
}

func TestCrossRegionSyncPenalty(t *testing.T) {
	// H5's premise: data parallelism across regions is much slower.
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	inZone := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	crossRegion := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	for i := range crossRegion.Stages {
		crossRegion.Stages[i].Replicas[2].Zone = zoneW
		crossRegion.Stages[i].Replicas[3].Zone = zoneW
	}
	ez, err := s.Estimate(inZone)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := s.Estimate(crossRegion)
	if err != nil {
		t.Fatal(err)
	}
	// Gradient sync over the slow inter-region link lands on the critical
	// path once per iteration; with gbs 2048 the relative penalty is a few
	// percent here and grows with DP (H3/H5 reason about exactly this).
	if ec.IterTime < 1.02*ez.IterTime {
		t.Errorf("cross-region DP should be measurably slower: %v vs %v", ec.IterTime, ez.IterTime)
	}
	if ec.EgressCost <= 0 {
		t.Error("cross-region sync must bill egress")
	}
}

func TestCrossRegionPipelineCheaperThanCrossRegionDP(t *testing.T) {
	// H5: spread the pipeline across regions, keep DP inside one. With the
	// static 1F1B schedule, cross-region p2p pays a per-microbatch latency
	// stall, so the advantage holds when the microbatch count is modest
	// (large mbs x dp) — which is exactly the regime Sailor's geo plans
	// pick (§5.2.3: "Sailor employs larger microbatch sizes").
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	const dp, mbs = 16, 8 // nb = 2048/(16*8) = 16 microbatches
	ppSplit := uniformPlan(core.A100, zoneA, 2, dp, 1, mbs, cfg.Layers)
	for j := range ppSplit.Stages[1].Replicas {
		ppSplit.Stages[1].Replicas[j].Zone = zoneW
	}
	dpSplit := uniformPlan(core.A100, zoneA, 2, dp, 1, mbs, cfg.Layers)
	for i := range dpSplit.Stages {
		for j := dp / 2; j < dp; j++ {
			dpSplit.Stages[i].Replicas[j].Zone = zoneW
		}
	}
	ep, err := s.Estimate(ppSplit)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := s.Estimate(dpSplit)
	if err != nil {
		t.Fatal(err)
	}
	if ep.IterTime >= ed.IterTime {
		t.Errorf("PP-across-regions %v should beat DP-across-regions %v", ep.IterTime, ed.IterTime)
	}
}

func TestInterZoneCheaperThanInterRegionEgress(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	mk := func(z core.Zone) core.Plan {
		p := uniformPlan(core.A100, zoneA, 2, 2, 1, 2, cfg.Layers)
		for j := range p.Stages[1].Replicas {
			p.Stages[1].Replicas[j].Zone = z
		}
		return p
	}
	ez, err := s.Estimate(mk(zoneB))
	if err != nil {
		t.Fatal(err)
	}
	er, err := s.Estimate(mk(zoneW))
	if err != nil {
		t.Fatal(err)
	}
	if ez.EgressCost <= 0 || er.EgressCost <= ez.EgressCost {
		t.Errorf("inter-region egress %v should exceed inter-zone %v (Figure 1 c6 vs c4)",
			er.EgressCost, ez.EgressCost)
	}
}

func TestOOMDetection(t *testing.T) {
	cfg := model.GPTNeo27B()
	s := newSim(t, cfg, core.V100)
	plan := uniformPlan(core.V100, zoneA, 2, 2, 1, 4, cfg.Layers)
	e, err := s.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if e.FitsMemory {
		t.Error("GPT-Neo with 16 layers per V100 at TP=1 must OOM")
	}
}

func TestEstimateRejectsInvalidPlan(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	if _, err := s.Estimate(core.Plan{}); err == nil {
		t.Error("want validation error")
	}
	bad := uniformPlan(core.A100, zoneA, 2, 2, 1, 2, cfg.Layers)
	bad.Stages[1].NumLayers++ // coverage mismatch
	if _, err := s.Estimate(bad); err == nil {
		t.Error("want coverage error")
	}
}

func TestCostScalesWithResources(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	small := uniformPlan(core.A100, zoneA, 2, 2, 1, 2, cfg.Layers)
	big := uniformPlan(core.A100, zoneA, 2, 8, 1, 2, cfg.Layers)
	es, err := s.Estimate(small)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := s.Estimate(big)
	if err != nil {
		t.Fatal(err)
	}
	// H4's premise: doubling DP does not halve iteration time, so cost per
	// iteration rises with resources.
	if eb.Cost() <= es.Cost() {
		t.Errorf("4x resources should cost more per iteration: %v <= %v", eb.Cost(), es.Cost())
	}
	if eb.IterTime >= es.IterTime {
		t.Error("more resources should still be faster in-zone")
	}
}

func TestStageComputeTimeAndCost(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	stage := func(layers int, last, recompute bool) float64 {
		t.Helper()
		v, err := s.StageComputeTimeWith(core.A100, 1, 2, layers, last, recompute)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	t1 := stage(6, false, false)
	if t2 := stage(12, false, false); t2 <= t1 {
		t.Error("more layers must take longer")
	}
	if tl := stage(6, true, false); tl <= t1 {
		t.Error("last stage pays the head")
	}
	if tr := stage(6, false, true); tr <= t1 {
		t.Error("recomputation replays the forward pass")
	}
	if c := s.GPUHourUSD(core.A100); c <= 0 {
		t.Error("GPU-hour price must be positive")
	}
}
