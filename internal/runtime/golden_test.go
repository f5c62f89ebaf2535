package runtime

// Golden determinism tests for the elastic path: replaying any registered
// scenario must produce the identical Report — iterations, reconfiguration
// count, plans deployed, rollback losses, checkpoints, and warm-cache
// utilisation — across runs, across processes (the golden files), and
// across planner worker counts. Regenerate the goldens with
//
//	go test ./internal/runtime -run TestRunElasticGolden -update
//
// after an intentional planner or controller behaviour change.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden elastic summaries")

// goldenSeed fixes every scenario's trace; the paper's Figure-2 trace uses
// the same seed in its own regression test.
const goldenSeed = 42

func scenarioController(t *testing.T, sc trace.Scenario, workers int) *Controller {
	t.Helper()
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, sc.GPUs, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(cfg, sim.New(cfg, prof), planner.Options{
		Objective:  core.MaxThroughput,
		Heuristics: planner.AllHeuristics(),
		Workers:    workers,
	})
	return NewController(ControllerConfig{
		Planner: pl, GT: groundtruth.New(cfg),
		CheckpointEvery: 5, CheckpointFlushSec: 2,
	})
}

// elasticSummary renders the deterministic portion of a Report: wall-clock
// planning times are excluded, everything else — including the warm-cache
// hit trajectory — must reproduce exactly.
func elasticSummary(rep Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d\n", rep.IterationsDone)
	fmt.Fprintf(&b, "reconfigs=%d\n", len(rep.Reconfigs))
	fmt.Fprintf(&b, "lost-iterations=%d\n", rep.LostIterations)
	fmt.Fprintf(&b, "checkpoints=%d\n", rep.CheckpointsTaken)
	fmt.Fprintf(&b, "plan-cache-hits=%d\n", rep.PlanCacheHits)
	fmt.Fprintf(&b, "virtual-hours=%.1f\n", rep.VirtualSeconds/3600)
	for i, p := range rep.PlansUsed {
		hits, explored := 0, 0
		if i < len(rep.Reconfigs) {
			hits = rep.Reconfigs[i].PlanCacheHits
			explored = rep.Reconfigs[i].PlanExplored
		}
		fmt.Fprintf(&b, "plan[%d] gpus=%d hits=%d explored=%d %s\n",
			i, p.GPUCount(), hits, explored, p)
	}
	return b.String()
}

func TestRunElasticGolden(t *testing.T) {
	for _, sc := range trace.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			tr := sc.Trace(goldenSeed)
			var summaries []string
			for _, workers := range []int{1, 8} {
				c := scenarioController(t, sc, workers)
				rep, err := c.RunElastic(tr)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if rep.IterationsDone <= 0 {
					t.Fatalf("workers=%d: no training happened", workers)
				}
				summaries = append(summaries, elasticSummary(rep))
			}
			if summaries[0] != summaries[1] {
				t.Fatalf("elastic run diverges between Workers=1 and Workers=8:\n--- w1 ---\n%s--- w8 ---\n%s",
					summaries[0], summaries[1])
			}
			path := filepath.Join("testdata", sc.Name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(summaries[0]), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(want) != summaries[0] {
				t.Errorf("summary drifted from golden %s:\n--- got ---\n%s--- want ---\n%s",
					path, summaries[0], want)
			}
		})
	}
}

// TestRunElasticWarmCacheWorks pins the warm cache's runtime effect: on a
// churny scenario the controller's replans of pools it already solved are
// answered from the warm cache, exploring less than the cold initial
// deploy.
func TestRunElasticWarmCacheWorks(t *testing.T) {
	sc, ok := trace.ScenarioByName("preemption-storm")
	if !ok {
		t.Fatal("preemption-storm not registered")
	}
	c := scenarioController(t, sc, 0)
	rep, err := c.RunElastic(sc.Trace(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reconfigs) < 4 {
		t.Fatalf("storm triggered only %d reconfigs", len(rep.Reconfigs))
	}
	if rep.PlanCacheHits == 0 {
		t.Error("no replan ever hit the warm cache across a preemption storm")
	}
	if rep.Reconfigs[0].PlanCacheHits != 0 {
		t.Error("initial deploy cannot have warm hits")
	}
	// The storm oscillates between repeated pool levels; at least one
	// later replan on the same level must explore strictly less than the
	// first one did.
	warmer := false
	for i := 1; i < len(rep.Reconfigs); i++ {
		if rep.Reconfigs[i].PlanCacheHits > 0 &&
			rep.Reconfigs[i].PlanExplored < rep.Reconfigs[0].PlanExplored {
			warmer = true
			break
		}
	}
	if !warmer {
		t.Error("warm replans never reduced exploration below the cold deploy")
	}
}

// TestLostIterationsAccounting: Report.LostIterations equals the sum of the
// per-reconfig rollback counts — the two views of the same loss.
func TestLostIterationsAccounting(t *testing.T) {
	sc, _ := trace.ScenarioByName("zone-outage")
	c := scenarioController(t, sc, 0)
	rep, err := c.RunElastic(sc.Trace(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range rep.Reconfigs {
		sum += r.RolledBackIters
	}
	if rep.LostIterations != sum {
		t.Errorf("LostIterations=%d but per-reconfig rollbacks sum to %d",
			rep.LostIterations, sum)
	}
	if rep.PlanningSeconds <= 0 {
		t.Error("PlanningSeconds not accumulated")
	}
}
