package runtime

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
)

var zoneA = cluster.GCPZone("us-central1", 'a')

func hetPlan() core.Plan {
	// PP=2, DP=2, stage 0 on A100/tp2, stage 1 on V100 with mixed tp 4/2:
	// the heterogeneous shape §4.4 adds support for.
	return core.Plan{
		MicroBatchSize: 2,
		Stages: []core.StagePlan{
			{FirstLayer: 0, NumLayers: 12, Replicas: []core.StageReplica{
				{GPU: core.A100, TP: 2, Zone: zoneA}, {GPU: core.A100, TP: 2, Zone: zoneA},
			}},
			{FirstLayer: 12, NumLayers: 12, Replicas: []core.StageReplica{
				{GPU: core.V100, TP: 4, Zone: zoneA}, {GPU: core.V100, TP: 2, Zone: zoneA},
			}},
		},
	}
}

func TestBuildTopologyRanks(t *testing.T) {
	topo, err := BuildTopology(hetPlan())
	if err != nil {
		t.Fatal(err)
	}
	if topo.WorldSize != 2+2+4+2 {
		t.Fatalf("WorldSize = %d, want 10", topo.WorldSize)
	}
	// Ranks must be unique and dense.
	seen := map[int]bool{}
	for _, st := range topo.Ranks {
		for _, g := range st {
			for _, r := range g {
				if seen[r] {
					t.Fatalf("rank %d assigned twice", r)
				}
				seen[r] = true
			}
		}
	}
	for r := 0; r < topo.WorldSize; r++ {
		if !seen[r] {
			t.Fatalf("rank %d missing", r)
		}
	}
}

func TestLocate(t *testing.T) {
	topo, _ := BuildTopology(hetPlan())
	info, err := topo.Locate(0)
	if err != nil || info.Stage != 0 || info.Replica != 0 || info.Shard != 0 {
		t.Fatalf("Locate(0) = %+v, %v", info, err)
	}
	// Rank 8 is the first rank of stage 1's tp=2 replica, after the tp=4
	// one: heterogeneous TP degrees shift the rank numbering.
	info8, err := topo.Locate(8)
	if err != nil || info8.Stage != 1 || info8.Replica != 1 || info8.Shard != 0 {
		t.Fatalf("Locate(8) = %+v, %v; want stage 1 replica 1 shard 0", info8, err)
	}
	if _, err := topo.Locate(99); err == nil {
		t.Error("want error for unknown rank")
	}
}

func TestCheckpointAsyncSemantics(t *testing.T) {
	c := NewCheckpointManager(10, 5.0)
	// Iteration 10 at t=100 starts a snapshot completing at t=105.
	c.OnIteration(10, 100)
	if got := c.LastCompleted(102); got != 0 {
		t.Errorf("snapshot not yet durable at t=102, got %d", got)
	}
	if got := c.LastCompleted(106); got != 10 {
		t.Errorf("snapshot should be durable at t=106, got %d", got)
	}
	// A rollback mid-flush discards the pending snapshot.
	c2 := NewCheckpointManager(10, 5.0)
	c2.OnIteration(10, 100)
	if got := c2.Rollback(101); got != 0 {
		t.Errorf("rollback mid-flush should land on 0, got %d", got)
	}
	// Skipped snapshot while one is in flight.
	c3 := NewCheckpointManager(1, 100.0)
	c3.OnIteration(1, 0)
	c3.OnIteration(2, 1) // still flushing; skipped
	if got := c3.LastCompleted(101); got != 1 {
		t.Errorf("only the first snapshot should complete, got %d", got)
	}
}

func newController(t *testing.T, cfg model.Config, gpus ...core.GPUType) *Controller {
	t.Helper()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(cfg, sim.New(cfg, prof), planner.Options{
		Objective:  core.MaxThroughput,
		Heuristics: planner.AllHeuristics(),
	})
	return NewController(ControllerConfig{
		Planner: pl, GT: groundtruth.New(cfg),
		CheckpointEvery: 5, CheckpointFlushSec: 2,
	})
}

func TestDeployAndTrain(t *testing.T) {
	cfg := model.OPT350M()
	c := newController(t, cfg, core.V100)
	defer c.Shutdown()
	pool := cluster.NewPool().Set(zoneA, core.V100, 16)
	timings, err := c.Deploy(pool)
	if err != nil {
		t.Fatal(err)
	}
	if timings.GroupInit <= 0 || timings.Broadcast <= 0 {
		t.Errorf("initial deploy must pay group init and broadcast: %+v", timings)
	}
	n, err := c.TrainFor(3600)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("an hour of training should complete iterations")
	}
	if c.Iteration() != n {
		t.Errorf("iteration counter %d != %d", c.Iteration(), n)
	}
}

// TestReconfigurationTimings reproduces §5.5: 16 V100s, 4 more appear,
// the controller re-plans and reconfigures kill-free.
func TestReconfigurationTimings(t *testing.T) {
	cfg := model.OPT350M()
	c := newController(t, cfg, core.V100)
	defer c.Shutdown()
	if _, err := c.Deploy(cluster.NewPool().Set(zoneA, core.V100, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TrainFor(600); err != nil {
		t.Fatal(err)
	}
	grew := cluster.NewPool().Set(zoneA, core.V100, 20)
	timings, err := c.Deploy(grew)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: planning 0.1 s, cleanup 3 s, broadcast 1.25 s, NCCL 4.5 s,
	// model 2 s, dataloaders 0.5 s. Check the shape, not exact values.
	if timings.Cleanup < 1 || timings.Cleanup > 10 {
		t.Errorf("cleanup %.2fs outside the expected ~3s band", timings.Cleanup)
	}
	if timings.GroupInit < 2 || timings.GroupInit > 60 {
		t.Errorf("group init %.2fs outside the expected ~4.5s band", timings.GroupInit)
	}
	if timings.ModelRedef <= 0 || timings.Dataloader <= 0 {
		t.Errorf("model/dataloader redefinition missing: %+v", timings)
	}
	if timings.Planning > 5 {
		t.Errorf("replanning took %.2fs; paper reports 0.1s", timings.Planning)
	}
	if timings.Total() > 60 {
		t.Errorf("total reconfiguration %.2fs implausibly high", timings.Total())
	}
}

func TestGroupInitScalesWithWorldSize(t *testing.T) {
	// §5.5: NCCL initialization grows toward minutes at large scale.
	small := groupInitBaseSec + groupInitPerRank*16
	large := groupInitBaseSec + groupInitPerRank*2048
	if large < 60*small/10 {
		t.Errorf("group init should grow steeply with ranks: %v vs %v", small, large)
	}
}

func TestCheckpointRollbackOnReconfig(t *testing.T) {
	cfg := model.OPT350M()
	c := newController(t, cfg, core.V100)
	defer c.Shutdown()
	if _, err := c.Deploy(cluster.NewPool().Set(zoneA, core.V100, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TrainFor(2000); err != nil {
		t.Fatal(err)
	}
	before := c.Iteration()
	timings, err := c.Deploy(cluster.NewPool().Set(zoneA, core.V100, 12))
	if err != nil {
		t.Fatal(err)
	}
	after := c.Iteration()
	if after > before {
		t.Fatal("iteration counter cannot advance during reconfiguration")
	}
	lost := before - after
	if lost != timings.RolledBackIters {
		t.Errorf("rollback accounting mismatch: %d vs %d", lost, timings.RolledBackIters)
	}
	// With checkpoints every 5 iterations, rollback loses fewer than
	// 5 + in-flight.
	if lost > c.Cfg.CheckpointEvery+2 {
		t.Errorf("lost %d iterations; checkpointing every %d should bound this", lost, c.Cfg.CheckpointEvery)
	}
}

func TestPreemptionKillsAndReplans(t *testing.T) {
	cfg := model.OPT350M()
	c := newController(t, cfg, core.V100)
	defer c.Shutdown()
	if _, err := c.Deploy(cluster.NewPool().Set(zoneA, core.V100, 16)); err != nil {
		t.Fatal(err)
	}
	killed := c.KillWorkersOn(zoneA, core.V100)
	if killed == 0 {
		t.Fatal("expected workers on the reclaimed capacity")
	}
	// Replan on the shrunken pool must succeed with fresh workers.
	if _, err := c.Deploy(cluster.NewPool().Set(zoneA, core.V100, 8)); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.GPUCount() > 8 {
		t.Errorf("new plan uses %d GPUs, only 8 remain", plan.GPUCount())
	}
	if _, err := c.TrainFor(600); err != nil {
		t.Fatalf("training after preemption: %v", err)
	}
}

func TestRunElasticOverTrace(t *testing.T) {
	cfg := model.OPT350M()
	c := newController(t, cfg, core.A100)
	tr := trace.Synthetic(2*time.Hour,
		trace.Event{At: 0, Zone: zoneA, GPU: core.A100, Delta: 8},
		trace.Event{At: 30 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: 8},
		trace.Event{At: 90 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: -8},
	)
	rep, err := c.RunElastic(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IterationsDone <= 0 {
		t.Fatal("no training happened")
	}
	if len(rep.Reconfigs) < 3 { // initial + grow + shrink
		t.Errorf("reconfigs = %d, want >= 3", len(rep.Reconfigs))
	}
	if len(rep.PlansUsed) != len(rep.Reconfigs) {
		t.Errorf("plans %d != reconfigs %d", len(rep.PlansUsed), len(rep.Reconfigs))
	}
	// The plan after growth should use more GPUs than the initial one.
	if len(rep.PlansUsed) >= 2 && rep.PlansUsed[1].GPUCount() <= rep.PlansUsed[0].GPUCount() {
		t.Errorf("growth event should enlarge the plan: %d -> %d",
			rep.PlansUsed[0].GPUCount(), rep.PlansUsed[1].GPUCount())
	}
}

// TestCleanupFollowsSurvivors pins the liveness bookkeeping: a rank dies
// once, and only surviving ranks pay the cleanup phase.
func TestCleanupFollowsSurvivors(t *testing.T) {
	cfg := model.OPT350M()
	c := newController(t, cfg, core.V100)
	defer c.Shutdown()
	zoneB := cluster.GCPZone("us-central1", 'b')
	mixed := cluster.NewPool().Set(zoneA, core.V100, 8).Set(zoneB, core.V100, 8)
	if _, err := c.Deploy(mixed); err != nil {
		t.Fatal(err)
	}
	plan, _ := c.Plan()
	onA := 0
	for _, st := range plan.Stages {
		for _, r := range st.Replicas {
			if r.Zone == zoneA {
				onA += r.TP
			}
		}
	}
	if onA == 0 || onA == plan.GPUCount() {
		t.Fatalf("plan must span both zones, uses %d of %d GPUs in zone a", onA, plan.GPUCount())
	}
	if got := c.KillWorkersOn(zoneA, core.V100); got != onA {
		t.Fatalf("first kill = %d, want %d", got, onA)
	}
	if got := c.KillWorkersOn(zoneA, core.V100); got != 0 {
		t.Errorf("second kill of the same cells = %d, want 0", got)
	}
	partial, err := c.Deploy(cluster.NewPool().Set(zoneB, core.V100, 8))
	if err != nil {
		t.Fatal(err)
	}
	if partial.Cleanup != cleanupSec {
		t.Errorf("cleanup after a partial kill = %v, want %v", partial.Cleanup, cleanupSec)
	}

	plan, _ = c.Plan()
	if got := c.KillWorkersOn(zoneB, core.V100); got != plan.GPUCount() {
		t.Fatalf("killing zone b = %d, want every rank (%d)", got, plan.GPUCount())
	}
	all, err := c.Deploy(cluster.NewPool().Set(zoneB, core.V100, 8))
	if err != nil {
		t.Fatal(err)
	}
	if all.Cleanup != 0 {
		t.Errorf("cleanup after every rank died = %v, want 0", all.Cleanup)
	}
}

func TestReportTotalDowntimeSeconds(t *testing.T) {
	rep := Report{Reconfigs: []PhaseTimings{
		{Planning: 1, Broadcast: 2},
		{Cleanup: 0.5, CkptLoad: 1.5},
	}}
	if got, want := rep.TotalDowntimeSeconds(), 5.0; got != want {
		t.Errorf("TotalDowntimeSeconds = %v, want %v", got, want)
	}
	if got := (Report{}).TotalDowntimeSeconds(); got != 0 {
		t.Errorf("empty report downtime = %v, want 0", got)
	}
}
