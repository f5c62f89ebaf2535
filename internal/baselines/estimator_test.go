package baselines

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/profiler"
)

func simplePlan(cfg model.Config, g core.GPUType, pp, dp, tp, mbs int) core.Plan {
	per := cfg.Layers / pp
	plan := core.Plan{MicroBatchSize: mbs}
	first := 0
	for i := 0; i < pp; i++ {
		st := core.StagePlan{FirstLayer: first, NumLayers: per}
		for k := 0; k < dp; k++ {
			st.Replicas = append(st.Replicas, core.StageReplica{GPU: g, TP: tp, Zone: zoneA})
		}
		plan.Stages = append(plan.Stages, st)
		first += per
	}
	return plan
}

func testEnv(t *testing.T, cfg model.Config, gpus ...core.GPUType) Env {
	t.Helper()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return Env{Cfg: cfg, Prof: prof}
}

func TestMemModelFlags(t *testing.T) {
	cfg := model.OPT350M()
	plan := simplePlan(cfg, core.A100, 2, 2, 1, 2)

	full := memModel{cfg: cfg}
	peakFull, ok := full.PeakMemory(plan)
	if !ok || peakFull <= 0 {
		t.Fatal("full model must produce an estimate")
	}

	noOpt := memModel{cfg: cfg, ignoreOptimizer: true}
	peakNoOpt, _ := noOpt.PeakMemory(plan)
	if peakNoOpt >= peakFull {
		t.Error("dropping optimizer states must shrink the estimate")
	}

	uniform := memModel{cfg: cfg, uniformStages: true}
	peakUniform, _ := uniform.PeakMemory(plan)
	if peakUniform >= peakFull {
		t.Error("uniform-stage (1 in-flight) accounting must shrink the estimate")
	}

	none := memModel{cfg: cfg, none: true}
	if _, ok := none.PeakMemory(plan); ok {
		t.Error("none model must report absence")
	}
	if v, ok := (memModel{cfg: cfg}).PeakMemory(core.Plan{}); !ok || v != 0 {
		t.Error("empty plan should yield zero estimate")
	}
}

func TestMemModelFullMatchesSailorAccounting(t *testing.T) {
	// With no flags set, the parameterised model must agree with Sailor's
	// own estimator (the baselines differ only via their omissions).
	cfg := model.OPT350M()
	plan := simplePlan(cfg, core.A100, 2, 4, 2, 2)
	full := memModel{cfg: cfg}
	got, _ := full.PeakMemory(plan)
	want, _, _, err := memory.Check(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("flagless memModel %d != memory.Check %d", got, want)
	}
}

func TestTimeModelFlags(t *testing.T) {
	cfg := model.OPT350M()
	env := testEnv(t, cfg, core.A100, core.V100)
	mixed := simplePlan(cfg, core.A100, 2, 2, 1, 2)
	for j := range mixed.Stages[1].Replicas {
		mixed.Stages[1].Replicas[j].GPU = core.V100
	}

	exact := timeModel{cfg: cfg, prof: env.Prof}
	tExact, err := exact.IterTime(mixed)
	if err != nil {
		t.Fatal(err)
	}

	// uniformGPU prices the V100 stage at A100 speed -> underestimates.
	uni := timeModel{cfg: cfg, prof: env.Prof, uniformGPU: true}
	tUni, err := uni.IterTime(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if tUni >= tExact {
		t.Errorf("uniform-GPU model %v must undercut straggler-aware %v on mixed plans", tUni, tExact)
	}

	// theoretical FLOPS ignores efficiency -> underestimates further.
	theo := timeModel{cfg: cfg, prof: env.Prof, theoreticalFLOPS: true}
	tTheo, err := theo.IterTime(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if tTheo >= tExact {
		t.Errorf("theoretical-FLOPS %v must undercut measured %v", tTheo, tExact)
	}

	// averaging stages hides the straggler.
	avg := timeModel{cfg: cfg, prof: env.Prof, averageStages: true}
	tAvg, err := avg.IterTime(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if tAvg >= tExact {
		t.Errorf("stage-averaging %v must undercut straggler max %v", tAvg, tExact)
	}

	// commOnly counts only communication.
	comm := timeModel{cfg: cfg, prof: env.Prof, commOnly: true}
	tComm, err := comm.IterTime(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if tComm >= tExact || tComm <= 0 {
		t.Errorf("comm-only %v must be positive and far below total %v", tComm, tExact)
	}
}

func TestTimeModelUniformBWIgnoresRegions(t *testing.T) {
	cfg := model.OPT350M()
	env := testEnv(t, cfg, core.A100)
	geo := simplePlan(cfg, core.A100, 2, 2, 1, 2)
	for j := range geo.Stages[1].Replicas {
		geo.Stages[1].Replicas[j].Zone = zoneW
	}
	aware := timeModel{cfg: cfg, prof: env.Prof}
	blind := timeModel{cfg: cfg, prof: env.Prof, uniformBW: true}
	tAware, err := aware.IterTime(geo)
	if err != nil {
		t.Fatal(err)
	}
	tBlind, err := blind.IterTime(geo)
	if err != nil {
		t.Fatal(err)
	}
	if tBlind >= tAware {
		t.Errorf("uniform-bandwidth model %v must miss the inter-region cost %v (Metis's flaw)", tBlind, tAware)
	}
}

func TestTimeModelErrors(t *testing.T) {
	cfg := model.OPT350M()
	env := testEnv(t, cfg, core.A100)
	m := timeModel{cfg: cfg, prof: env.Prof}
	if _, err := m.IterTime(core.Plan{}); err == nil {
		t.Error("want error for empty plan")
	}
	// Unprofiled GPU type.
	p := simplePlan(cfg, "No-Such-GPU", 1, 1, 1, 1)
	if _, err := m.IterTime(p); err == nil {
		t.Error("want error for unprofiled GPU")
	}
}

func TestFitsOwnModel(t *testing.T) {
	cfg := model.GPTNeo27B()
	// A plan that really OOMs on V100.
	plan := simplePlan(cfg, core.V100, 2, 1, 1, 4)
	honest := estimator{mm: memModel{cfg: cfg}}
	if fitsOwnModel(honest, plan) {
		t.Error("honest model must reject the OOM plan")
	}
	blind := estimator{mm: memModel{cfg: cfg, none: true}}
	if !fitsOwnModel(blind, plan) {
		t.Error("model-free planner must wave the OOM plan through (AMP's failure mode)")
	}
}

func TestTopologyOf(t *testing.T) {
	pool := cluster.NewPool().
		Set(zoneA, core.A100, 18). // 4 whole VMs + 2 stray GPUs
		Set(zoneB, core.V100, 8)
	topo := topologyOf(pool)
	if got := topo.totalNodes(core.A100); got != 4 {
		t.Errorf("A100 nodes = %d, want 4 (whole VMs only)", got)
	}
	if got := topo.totalNodes(core.V100); got != 2 {
		t.Errorf("V100 nodes = %d, want 2", got)
	}
	types := topo.gpuTypes()
	if len(types) != 2 || types[0] != core.A100 {
		t.Errorf("gpuTypes = %v, want A100 first (price-ordered)", types)
	}
}

func TestUniformPlanPacking(t *testing.T) {
	cfg := model.OPT350M()
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	topo := topologyOf(pool)
	plan, ok := uniformPlan(cfg, topo, core.A100, 2, 4, 2, 1)
	if !ok {
		t.Fatal("plan should fit: 2*4*2 = 16 GPUs")
	}
	if err := plan.Validate(cfg.Layers); err != nil {
		t.Fatal(err)
	}
	if _, ok := uniformPlan(cfg, topo, core.A100, 4, 4, 2, 1); ok {
		t.Error("32-GPU demand must not fit 16 GPUs")
	}
	if _, ok := uniformPlan(cfg, topo, core.A100, 2, 2, 8, 1); ok {
		t.Error("TP=8 must not fit 4-GPU nodes")
	}
}
