package memory

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
)

func shape(layers, stage, pp, tp, mbs, nb int) WorkerShape {
	return WorkerShape{
		Layers: layers, StageIdx: stage, PP: pp, TP: tp,
		MicroBS: mbs, NumMicro: nb,
		FirstStg: stage == 0, LastStg: stage == pp-1,
	}
}

func TestBreakdownTotalsAllSources(t *testing.T) {
	cfg := model.OPT350M()
	b := WorkerFootprint(cfg, shape(6, 1, 4, 1, 2, 8))
	if b.Weights <= 0 || b.Gradients <= 0 || b.OptimizerStates <= 0 ||
		b.CommBuffers <= 0 || b.Activations <= 0 {
		t.Fatalf("all memory sources must be counted: %+v", b)
	}
	sum := b.Weights + b.Gradients + b.OptimizerStates + b.CommBuffers + b.Activations
	if b.Total() != sum {
		t.Errorf("Total = %d, want %d", b.Total(), sum)
	}
	// Optimizer states dominate weights 6:1 in mixed-precision Adam — the
	// source Varuna-style estimators omit (Figure 3).
	if b.OptimizerStates != 6*b.Weights {
		t.Errorf("optimizer:weights = %d:%d, want 6:1", b.OptimizerStates, b.Weights)
	}
}

func TestActivationPyramid(t *testing.T) {
	// Earlier 1F1B stages hold more in-flight microbatches, so with equal
	// layers stage 0 must out-consume the middle stages (per-worker
	// accounting, the thing uniform-per-stage estimators miss).
	cfg := model.OPT350M()
	first := WorkerFootprint(cfg, WorkerShape{Layers: 6, StageIdx: 0, PP: 4, TP: 1, MicroBS: 2, NumMicro: 8})
	mid := WorkerFootprint(cfg, WorkerShape{Layers: 6, StageIdx: 2, PP: 4, TP: 1, MicroBS: 2, NumMicro: 8})
	if first.Activations <= mid.Activations {
		t.Errorf("stage 0 activations %d should exceed stage 2's %d", first.Activations, mid.Activations)
	}
	if first.Activations != 2*mid.Activations {
		t.Errorf("4-deep pipeline: stage 0 holds 4 in-flight, stage 2 holds 2: %d vs %d",
			first.Activations, mid.Activations)
	}
}

func TestInflightCappedByMicrobatches(t *testing.T) {
	cfg := model.OPT350M()
	// With nb=2 the pyramid saturates at 2 regardless of depth.
	a := WorkerFootprint(cfg, WorkerShape{Layers: 6, StageIdx: 0, PP: 8, TP: 1, MicroBS: 2, NumMicro: 2})
	b := WorkerFootprint(cfg, WorkerShape{Layers: 6, StageIdx: 5, PP: 8, TP: 1, MicroBS: 2, NumMicro: 2})
	if a.Activations != b.Activations {
		t.Errorf("in-flight must cap at nb: %d vs %d", a.Activations, b.Activations)
	}
}

func TestLastStageLogitsBuffer(t *testing.T) {
	cfg := model.OPT350M()
	last := WorkerFootprint(cfg, WorkerShape{Layers: 6, StageIdx: 3, PP: 4, TP: 1, MicroBS: 2, NumMicro: 8, LastStg: true})
	mid := WorkerFootprint(cfg, WorkerShape{Layers: 6, StageIdx: 3, PP: 4, TP: 1, MicroBS: 2, NumMicro: 8})
	if last.Activations <= mid.Activations {
		t.Error("last stage must pay the vocab logits buffer")
	}
}

func TestTPShardsFootprint(t *testing.T) {
	cfg := model.GPTNeo27B()
	t1 := WorkerFootprint(cfg, shape(8, 1, 4, 1, 2, 8)).Total()
	t4 := WorkerFootprint(cfg, shape(8, 1, 4, 4, 2, 8)).Total()
	if t4 >= t1 {
		t.Errorf("TP=4 must shrink the footprint: %d >= %d", t4, t1)
	}
}

func onePlanZ(g core.GPUType, tp, dp, pp, mbs, layers int) core.Plan {
	z := core.Zone{Region: "r", Name: "r-a"}
	per := layers / pp
	stages := make([]core.StagePlan, pp)
	for i := range stages {
		reps := make([]core.StageReplica, dp)
		for j := range reps {
			reps[j] = core.StageReplica{GPU: g, TP: tp, Zone: z}
		}
		stages[i] = core.StagePlan{FirstLayer: i * per, NumLayers: per, Replicas: reps}
	}
	return core.Plan{MicroBatchSize: mbs, Stages: stages}
}

func TestCheckDetectsOOM(t *testing.T) {
	cfg := model.GPTNeo27B()
	// 2.7B params on a single V100-16GB with TP=1: hopeless.
	bad := onePlanZ(core.V100, 1, 1, 1, 4, 32)
	_, gpu, fits, err := Check(cfg, bad)
	if err != nil {
		t.Fatal(err)
	}
	if fits {
		t.Fatal("GPT-Neo on one V100 must OOM")
	}
	if gpu != core.V100 {
		t.Errorf("peak GPU = %s, want V100", gpu)
	}
	// Same model spread over 8 stages of GH200 with TP=4 fits comfortably.
	good := onePlanZ(core.GH200, 4, 2, 8, 1, 32)
	_, _, fits, err = Check(cfg, good)
	if err != nil {
		t.Fatal(err)
	}
	if !fits {
		t.Error("8-stage TP=4 GH200 plan should fit GPT-Neo")
	}
}

// TestCheckCountsScheduledMicrobatches: Check keeps as many microbatches in
// flight as the time models run, ceil(gbs / (dp * mbs)). With 65 replicas
// of mbs 8, OPT-350M's 2048 sequences make 4 microbatches (the last one
// short), so stage 0 of a 4-stage pipeline holds all 4, not 3.
func TestCheckCountsScheduledMicrobatches(t *testing.T) {
	cfg := model.OPT350M()
	plan := onePlanZ(core.A100, 1, 65, 4, 8, cfg.Layers)
	if got := NumMicrobatches(cfg, plan); got != 4 {
		t.Fatalf("NumMicrobatches = %d, want ceil(2048/520) = 4", got)
	}
	peak, _, _, err := Check(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	want := WorkerFootprint(cfg, shape(cfg.Layers/4, 0, 4, 1, 8, 4)).Total()
	if peak != want {
		t.Errorf("Check peak = %d, want stage 0 with 4 in flight = %d", peak, want)
	}
}

func TestCheckEmptyPlan(t *testing.T) {
	if _, _, _, err := Check(model.OPT350M(), core.Plan{}); err == nil {
		t.Error("want error for empty plan")
	}
}

func TestMinTP(t *testing.T) {
	cfg := model.GPTNeo27B()
	// A full 32-layer stage of GPT-Neo on V100-16GB cannot fit at any TP
	// within a 4-GPU node.
	if got := MinTP(cfg, core.V100, 32, 0, 1, 4, 16); got != 0 {
		t.Errorf("MinTP V100 full model = %d, want 0 (impossible)", got)
	}
	// A 4-layer stage of OPT-350M fits a single A100.
	if got := MinTP(model.OPT350M(), core.A100, 4, 0, 6, 2, 8); got != 1 {
		t.Errorf("MinTP A100 small stage = %d, want 1", got)
	}
	// V100 needs a higher TP than A100 for the same GPT-Neo stage — the
	// memory-capacity asymmetry H2 exploits.
	a := MinTP(cfg, core.A100, 8, 0, 4, 2, 16)
	v := MinTP(cfg, core.V100, 8, 0, 4, 2, 16)
	if a == 0 {
		t.Fatal("A100 should fit an 8-layer GPT-Neo stage at some TP")
	}
	if v != 0 && v <= a {
		t.Errorf("V100 MinTP %d should exceed A100's %d", v, a)
	}
	if got := MinTP(cfg, "No-Such", 8, 0, 4, 2, 16); got != 0 {
		t.Error("unknown GPU should yield 0")
	}
}

func TestMinTPIndependentOfAvailability(t *testing.T) {
	// H2's cache validity: MinTP depends only on the stage shape, never on
	// pool contents, so the same inputs must always agree.
	cfg := model.OPT350M()
	a := MinTP(cfg, core.V100, 6, 1, 4, 4, 8)
	b := MinTP(cfg, core.V100, 6, 1, 4, 4, 8)
	if a != b {
		t.Errorf("MinTP not deterministic: %d vs %d", a, b)
	}
}

func TestFootprintFitsRealisticBudget(t *testing.T) {
	// OPT-350M, PP=2, TP=1, mbs=2 should fit an A100-40GB —
	// the kind of plan Figure 7 deploys.
	cfg := model.OPT350M()
	plan := onePlanZ(core.A100, 1, 4, 2, 2, 24)
	peak, _, fits, err := Check(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !fits {
		t.Errorf("OPT-350M PP=2 plan should fit A100-40GB, peak %d", peak)
	}
	spec := hardware.MustLookup(core.A100)
	if peak >= spec.MemoryBytes {
		t.Errorf("peak %d exceeds capacity %d", peak, spec.MemoryBytes)
	}
}
