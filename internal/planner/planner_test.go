package planner

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

var (
	zoneA = cluster.GCPZone("us-central1", 'a')
	zoneB = cluster.GCPZone("us-central1", 'b')
	zoneW = cluster.GCPZone("us-west1", 'a')
)

func newPlanner(t *testing.T, cfg model.Config, opts Options, gpus ...core.GPUType) *Planner {
	t.Helper()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Heuristics == (Heuristics{}) {
		opts.Heuristics = AllHeuristics()
	}
	return New(cfg, sim.New(cfg, prof), opts)
}

func TestHomogeneousPlan(t *testing.T) {
	cfg := model.OPT350M()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 32)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(cfg.Layers); err != nil {
		t.Fatalf("returned invalid plan: %v", err)
	}
	if !res.Estimate.FitsMemory {
		t.Fatal("Sailor must never emit OOM plans")
	}
	if got := res.Plan.GPUCount(); got > 32 {
		t.Fatalf("plan uses %d GPUs, only 32 available", got)
	}
	if res.SearchTime > 10*time.Second {
		t.Errorf("homogeneous 32-GPU search took %v; paper: <1s", res.SearchTime)
	}
	if res.Estimate.Throughput() <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestPlannerBeatsNaivePlan(t *testing.T) {
	cfg := model.OPT350M()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 32)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Naive: PP=8, DP=1, TP=4, mbs=1 — a valid but weak hand-rolled plan.
	naive := core.Plan{MicroBatchSize: 1}
	for i := 0; i < 8; i++ {
		naive.Stages = append(naive.Stages, core.StagePlan{
			FirstLayer: i * 3, NumLayers: 3,
			Replicas: []core.StageReplica{{GPU: core.A100, TP: 4, Zone: zoneA}},
		})
	}
	naiveEst, err := pl.Sim.Estimate(naive)
	if err != nil {
		t.Fatal(err)
	}
	if !naiveEst.FitsMemory {
		t.Fatal("the naive plan must fit memory")
	}
	if naiveTP := naiveEst.Throughput(); res.Estimate.Throughput() <= naiveTP {
		t.Errorf("planner %v it/s should beat naive %v it/s", res.Estimate.Throughput(), naiveTP)
	}
}

func TestPlanRespectsNodeSizeTP(t *testing.T) {
	// H1: TP never exceeds the node size (4 for cloud VMs).
	cfg := model.GPTNeo27B()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 64)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Plan.Stages {
		for _, r := range s.Replicas {
			if r.TP > 4 {
				t.Fatalf("replica TP %d exceeds the 4-GPU node (H1)", r.TP)
			}
		}
	}
}

func TestHeterogeneousUsesVBothTypes(t *testing.T) {
	// With few A100s and ample V100s, the plan should recruit V100s
	// (heterogeneity pays when resources are limited, §5.2.2).
	cfg := model.GPTNeo27B()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100, core.V100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneA, core.V100, 48)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	types := res.Plan.GPUTypes()
	if len(types) < 2 {
		t.Logf("plan: %s", res.Plan)
		t.Errorf("expected both GPU types in use, got %v", types)
	}
	// And it must beat what the planner can do with the A100s alone.
	a100Only := cluster.NewPool().Set(zoneA, core.A100, 16)
	resA, err := pl.Plan(a100Only)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Throughput() <= resA.Estimate.Throughput() {
		t.Errorf("hetero %v it/s should beat 16xA100-only %v it/s",
			res.Estimate.Throughput(), resA.Estimate.Throughput())
	}
}

func TestGeoPlanKeepsDPWithinRegion(t *testing.T) {
	// H5: all replicas of one stage stay in one region.
	cfg := model.OPT350M()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	pool := cluster.NewPool().
		Set(zoneA, core.A100, 16).Set(zoneB, core.A100, 16).
		Set(zoneW, core.A100, 32)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Plan.Stages {
		region := s.Replicas[0].Zone.Region
		for _, r := range s.Replicas {
			if r.Zone.Region != region {
				t.Fatalf("stage %d spans regions %s and %s (violates H5)", i, region, r.Zone.Region)
			}
		}
	}
}

func TestMinCostWithThroughputConstraint(t *testing.T) {
	// §5.2.4 scenario 1: minimize cost subject to a throughput floor.
	cfg := model.OPT350M()
	floor := 0.05
	plCost := newPlanner(t, cfg, Options{
		Objective:   core.MinCost,
		Constraints: core.Constraints{MinThroughput: floor},
	}, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 128)
	res, err := plCost.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Estimate.Throughput(); got < floor {
		t.Fatalf("throughput %v below the floor %v", got, floor)
	}
	// A max-throughput plan on the same pool should cost at least as much.
	plTP := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	resTP, err := plTP.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Cost() > resTP.Estimate.Cost() {
		t.Errorf("min-cost plan $%v should not exceed max-throughput plan $%v",
			res.Estimate.Cost(), resTP.Estimate.Cost())
	}
	// The cost objective should not grab all 128 GPUs if fewer meet the floor.
	if res.Plan.GPUCount() >= resTP.Plan.GPUCount() {
		t.Errorf("min-cost plan uses %d GPUs, max-throughput uses %d; expected fewer",
			res.Plan.GPUCount(), resTP.Plan.GPUCount())
	}
}

func TestBudgetConstraintHonored(t *testing.T) {
	// §5.2.4 scenario 2: maximize throughput under a $/iteration cap.
	cfg := model.OPT350M()
	budget := 0.5
	pl := newPlanner(t, cfg, Options{
		Objective:   core.MaxThroughput,
		Constraints: core.Constraints{MaxCostPerIter: budget},
	}, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 128)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Estimate.Cost(); got > budget {
		t.Fatalf("plan costs $%v/iter, budget $%v", got, budget)
	}
	// Unconstrained search on the same pool should be at least as fast.
	plFree := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	free, err := plFree.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Throughput() > free.Estimate.Throughput()*1.001 {
		t.Errorf("budgeted plan cannot beat unconstrained: %v > %v",
			res.Estimate.Throughput(), free.Estimate.Throughput())
	}
}

func TestInfeasibleConstraints(t *testing.T) {
	cfg := model.OPT350M()
	pl := newPlanner(t, cfg, Options{
		Objective:   core.MaxThroughput,
		Constraints: core.Constraints{MaxCostPerIter: 0.000001},
	}, core.A100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 8)
	if _, err := pl.Plan(pool); err == nil {
		t.Fatal("want error for impossible budget")
	}
}

func TestEmptyPool(t *testing.T) {
	pl := newPlanner(t, model.OPT350M(), Options{}, core.A100)
	if _, err := pl.Plan(cluster.NewPool()); err == nil {
		t.Fatal("want error for empty pool")
	}
}

func TestTooBigModelNoPlan(t *testing.T) {
	// GPT-Neo cannot fit on 4 V100s no matter the plan.
	cfg := model.GPTNeo27B()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.V100)
	pool := cluster.NewPool().Set(zoneA, core.V100, 4)
	if _, err := pl.Plan(pool); err == nil {
		t.Fatal("want no-valid-plan error")
	} else if !strings.Contains(err.Error(), "no valid plan") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDeterministicSearch(t *testing.T) {
	cfg := model.OPT350M()
	pool := cluster.NewPool().Set(zoneA, core.A100, 32).Set(zoneA, core.V100, 32)
	a := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100, core.V100)
	b := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100, core.V100)
	ra, err := a.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Plan.String() != rb.Plan.String() {
		t.Errorf("search not deterministic:\n%s\n%s", ra.Plan, rb.Plan)
	}
}

func TestHeuristicsAblationSameQualityMoreWork(t *testing.T) {
	// Table 3's premise: heuristics cut the search dramatically without
	// giving up plan quality (on small instances where both complete).
	cfg := model.OPT350M()
	pool := cluster.NewPool().Set(zoneA, core.A100, 16)
	fast := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100)
	slow := newPlanner(t, cfg, Options{
		Objective:  core.MaxThroughput,
		Heuristics: Heuristics{H6MergeZones: true}, // H2/H3 off
	}, core.A100)
	rf, err := fast.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := slow.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Explored <= rf.Explored {
		t.Errorf("no-heuristics search should explore more: %d <= %d", rs.Explored, rf.Explored)
	}
	// The heuristic search must stay within a whisker of the exhaustive one.
	if rf.Estimate.Throughput() < 0.9*rs.Estimate.Throughput() {
		t.Errorf("heuristics lost too much quality: %v vs %v",
			rf.Estimate.Throughput(), rs.Estimate.Throughput())
	}
}

func TestDeadlineReturnsBestSoFar(t *testing.T) {
	cfg := model.GPTNeo27B()
	pl := newPlanner(t, cfg, Options{
		Objective: core.MaxThroughput,
		Deadline:  50 * time.Millisecond,
	}, core.A100, core.V100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 128).Set(zoneA, core.V100, 384)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Skip("deadline hit before any candidate; acceptable on slow machines")
	}
	if res.SearchTime > 3*time.Second {
		t.Errorf("deadline not honored: searched for %v", res.SearchTime)
	}
}

func TestPlannedPlanSurvivesGroundTruth(t *testing.T) {
	// End-to-end: the planner's plan must deploy on the ground-truth
	// engine without OOM and with throughput close to the estimate.
	cfg := model.OPT350M()
	pl := newPlanner(t, cfg, Options{Objective: core.MaxThroughput}, core.A100, core.V100)
	pool := cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneA, core.V100, 16)
	res, err := pl.Plan(pool)
	if err != nil {
		t.Fatal(err)
	}
	gt := groundtruth.New(cfg)
	m, err := gt.Measure(res.Plan)
	if err != nil {
		t.Fatalf("planned plan failed on ground truth: %v", err)
	}
	if !m.FitsMemory {
		t.Fatalf("planned plan OOMs on ground truth: peak %d on %s", m.PeakMemory, m.PeakMemoryGPU)
	}
	est, real := res.Estimate.Throughput(), m.Throughput()
	rel := (est - real) / real
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.15 {
		t.Errorf("estimate %v vs ground truth %v: %.1f%% apart", est, real, 100*rel)
	}
}

func TestPartitionLayers(t *testing.T) {
	got := partitionLayers(24, 5)
	want := []int{5, 5, 5, 5, 4}
	sum := 0
	for i, v := range got {
		if v != want[i] {
			t.Fatalf("partitionLayers(24,5) = %v, want %v", got, want)
		}
		sum += v
	}
	if sum != 24 {
		t.Fatal("partition must cover all layers")
	}
}

func TestPPCandidatesIncludeDivisors(t *testing.T) {
	pl := newPlanner(t, model.OPT350M(), Options{Objective: core.MaxThroughput}, core.A100)
	got := pl.ppCandidates()
	has := map[int]bool{}
	for _, p := range got {
		has[p] = true
	}
	for _, want := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		if !has[want] {
			t.Errorf("ppCandidates missing %d: %v", want, got)
		}
	}
}

// scanKey names one DP-degree scan of a search.
type scanKey struct{ pp, mbs, d int }

// microbatchEval records, per scan shape, the microbatches of every plan
// a single-worker search scores.
type microbatchEval struct {
	*sim.Simulator
	nb map[scanKey]int
}

func (e *microbatchEval) Estimate(plan core.Plan) (core.Estimate, error) {
	e.nb[scanKey{len(plan.Stages), plan.MicroBatchSize, plan.DP()}] = memory.NumMicrobatches(e.Cfg, plan)
	return e.Simulator.Estimate(plan)
}

// TestDPMicrobatchesMatchPlan: the DP weighs a scan's straggler, bounds and
// H2 memory check with the microbatch count of the plans that scan
// materialises, also when d·mbs does not divide the global batch. With a
// global batch of 1000 at d 64 and mbs 8 a pipeline runs ceil(1000/512) = 2
// microbatches; every plan the search scores runs the count
// memory.Microbatches gives its scan, which is the count searchDP hands
// the DP.
func TestDPMicrobatchesMatchPlan(t *testing.T) {
	cfg := model.OPT350M()
	cfg.GlobalBatch = 1000
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := &microbatchEval{Simulator: sim.New(cfg, prof), nb: map[scanKey]int{}}
	pl := New(cfg, ev, Options{Objective: core.MaxThroughput, Heuristics: AllHeuristics(), Workers: 1})
	if _, err := pl.Plan(cluster.NewPool().Set(zoneA, core.A100, 256)); err != nil {
		t.Fatal(err)
	}
	if got := ev.nb[scanKey{1, 8, 64}]; got != 2 {
		t.Fatalf("the search scored no pp 1, mbs 8, d 64 plan with 2 microbatches (got %d)", got)
	}
	for k, got := range ev.nb {
		if want := memory.Microbatches(cfg.GlobalBatch, k.d, k.mbs); got != want {
			t.Errorf("scan %+v: the DP counted %d microbatches, the plan runs %d", k, want, got)
		}
	}
}

// TestPlanBuildFailuresCounted: a DP chain the merged region bucket admits
// but no zone can host is counted, not silently dropped. One A100 in each of
// two zones of a region pools to 2 in the H6 bucket, so the DP offers TP-2
// replicas there that buildPlan cannot place in either zone; two A100s in
// one zone host every chain the DP finds. A stored-result hit searches
// nothing and counts nothing.
func TestPlanBuildFailuresCounted(t *testing.T) {
	cfg := model.OPT350M()
	split := cluster.NewPool().Set(zoneA, core.A100, 1).Set(zoneB, core.A100, 1)
	one := cluster.NewPool().Set(zoneA, core.A100, 2)
	for _, obj := range []core.Objective{core.MaxThroughput, core.MinCost} {
		pl := newPlanner(t, cfg, Options{Objective: obj, Workers: 1, Warm: NewWarmCache()}, core.A100)
		for _, tc := range []struct {
			name string
			pool *cluster.Pool
			want int
		}{{"split", split, 3}, {"one zone", one, 0}} {
			res, err := pl.Plan(tc.pool)
			if err != nil {
				t.Fatalf("%v %s: %v", obj, tc.name, err)
			}
			if res.PlanBuildFailures != tc.want {
				t.Errorf("%v %s: %d plan-build failures, want %d", obj, tc.name, res.PlanBuildFailures, tc.want)
			}
			if res, err = pl.Plan(tc.pool); err != nil || res.CacheHits != 1 || res.PlanBuildFailures != 0 {
				t.Errorf("%v %s: stored hit counted %d plan-build failures (hits %d, err %v)", obj, tc.name, res.PlanBuildFailures, res.CacheHits, err)
			}
		}
	}
}
