package groundtruth

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

var (
	zoneA = core.Zone{Region: "us-central1", Name: "us-central1-a"}
	zoneW = core.Zone{Region: "us-west1", Name: "us-west1-a"}
)

func uniformPlan(g core.GPUType, z core.Zone, pp, dp, tp, mbs, layers int) core.Plan {
	per := layers / pp
	rem := layers - per*pp
	stages := make([]core.StagePlan, pp)
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

func TestMeasureDeterministic(t *testing.T) {
	cfg := model.OPT350M()
	e := New(cfg)
	plan := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	a, err := e.Measure(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Measure(plan)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterTime != b.IterTime || a.PeakMemory != b.PeakMemory {
		t.Error("same seed must reproduce the measurement exactly")
	}
	e2 := New(cfg)
	e2.Seed = 99
	c, err := e2.Measure(plan)
	if err != nil {
		t.Fatal(err)
	}
	if c.IterTime == a.IterTime {
		t.Error("different seeds should jitter the measurement")
	}
}

// TestSimulatorCalibration is the reproduction of the paper's §5.1 claim:
// the Sailor simulator's iteration-time estimate lands within a few percent
// of a real (here: ground-truth) run across plan shapes.
func TestSimulatorCalibration(t *testing.T) {
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100, core.GH200}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(cfg, prof)
	e := New(cfg)
	cases := []core.Plan{
		uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers),
		uniformPlan(core.A100, zoneA, 4, 2, 2, 4, cfg.Layers),
		uniformPlan(core.GH200, zoneA, 2, 2, 4, 8, cfg.Layers),
		uniformPlan(core.A100, zoneA, 1, 8, 2, 2, cfg.Layers),
	}
	for i, plan := range cases {
		est, err := s.Estimate(plan)
		if err != nil {
			t.Fatalf("case %d estimate: %v", i, err)
		}
		meas, err := e.Measure(plan)
		if err != nil {
			t.Fatalf("case %d measure: %v", i, err)
		}
		rel := math.Abs(est.IterTime-meas.IterTime) / meas.IterTime
		if rel > 0.12 {
			t.Errorf("case %d: simulator off by %.1f%% (est %v, real %v); paper reports ~6%%",
				i, 100*rel, est.IterTime, meas.IterTime)
		}
	}
}

func TestMemoryCalibration(t *testing.T) {
	// Ground-truth peak exceeds the analytical estimate (fragmentation,
	// transients) but by a bounded margin — Sailor's ~5.5% error band.
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(cfg, prof)
	e := New(cfg)
	plan := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	est, err := s.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := e.Measure(plan)
	if err != nil {
		t.Fatal(err)
	}
	if meas.PeakMemory <= est.PeakMemory {
		t.Errorf("real peak %d should exceed analytical %d", meas.PeakMemory, est.PeakMemory)
	}
	rel := float64(meas.PeakMemory-est.PeakMemory) / float64(meas.PeakMemory)
	if rel > 0.15 {
		t.Errorf("analytical memory off by %.1f%%, want under 15%%", 100*rel)
	}
}

func TestStragglerPipelineDominates(t *testing.T) {
	cfg := model.OPT350M()
	e := New(cfg)
	pure := uniformPlan(core.A100, zoneA, 2, 2, 2, 2, cfg.Layers)
	mixed := uniformPlan(core.A100, zoneA, 2, 2, 2, 2, cfg.Layers)
	// Pipeline 1 (replica index 1) runs on V100s end to end.
	for i := range mixed.Stages {
		mixed.Stages[i].Replicas[1].GPU = core.V100
	}
	ep, err := e.Measure(pure)
	if err != nil {
		t.Fatal(err)
	}
	em, err := e.Measure(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if em.IterTime <= ep.IterTime {
		t.Errorf("V100 pipeline must gate the iteration: %v <= %v", em.IterTime, ep.IterTime)
	}
}

func TestCrossRegionContention(t *testing.T) {
	// Two stage rings crossing the same region boundary contend; the
	// analytical simulator does not model this, the ground truth does.
	cfg := model.OPT350M()
	e := New(cfg)
	one := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	for i := range one.Stages {
		one.Stages[i].Replicas[2].Zone = zoneW
		one.Stages[i].Replicas[3].Zone = zoneW
	}
	inZone := uniformPlan(core.A100, zoneA, 2, 4, 1, 2, cfg.Layers)
	ez, err := e.Measure(inZone)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := e.Measure(one)
	if err != nil {
		t.Fatal(err)
	}
	if ec.IterTime <= ez.IterTime {
		t.Error("cross-region DP must be slower in ground truth too")
	}
	if ec.EgressCost <= 0 {
		t.Error("cross-region plan must bill egress")
	}
}

func TestMeasureThroughputOOM(t *testing.T) {
	cfg := model.GPTNeo27B()
	e := New(cfg)
	plan := uniformPlan(core.V100, zoneA, 2, 2, 1, 4, cfg.Layers)
	est, err := e.Measure(plan)
	if err != nil {
		t.Fatal(err)
	}
	if est.FitsMemory {
		t.Errorf("GPT-Neo with 16 layers per V100 at TP=1 must OOM on ground truth: peak %d", est.PeakMemory)
	}
}

func TestMeasureRejectsInvalidPlan(t *testing.T) {
	e := New(model.OPT350M())
	if _, err := e.Measure(core.Plan{}); err == nil {
		t.Error("want validation error")
	}
}

func TestPerIterationOverheadPresent(t *testing.T) {
	// Even a tiny single-GPU plan pays the fixed framework overhead.
	cfg := model.OPT350M()
	e := New(cfg)
	plan := uniformPlan(core.GH200, zoneA, 1, 1, 1, 32, cfg.Layers)
	m, err := e.Measure(plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.IterTime < perIterOverheadSec {
		t.Errorf("iteration %v cannot undercut the fixed overhead", m.IterTime)
	}
}
