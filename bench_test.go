// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (one benchmark per artefact; see internal/experiments) plus
// micro-benchmarks of the core components and ablations of the design
// decisions D1-D6.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Artefact benches run the Quick variant by default so the suite stays in
// minutes; set SAILOR_BENCH_FULL=1 for paper-scale clusters, and use
// cmd/sailor-bench to pretty-print the regenerated tables. The planner,
// service, fleet and recovery rows of BENCH_planner.json are BenchmarkSuite
// in cmd/sailor-bench.
package repro

import (
	"fmt"
	"os"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/groundtruth"
	"repro/internal/hardware"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
)

func benchOpts() experiments.Opts {
	return experiments.Opts{
		Quick:          os.Getenv("SAILOR_BENCH_FULL") == "",
		SlowPlannerCap: 5 * time.Second,
	}
}

func benchArtefact(b *testing.B, id string) {
	b.Helper()
	o := benchOpts()
	run, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		tab, err := run(o)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		rows = len(tab.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// --- one benchmark per paper artefact ---------------------------------------

func BenchmarkFigure1(b *testing.B)  { benchArtefact(b, "fig1") }
func BenchmarkFigure2(b *testing.B)  { benchArtefact(b, "fig2") }
func BenchmarkFigure3(b *testing.B)  { benchArtefact(b, "fig3") }
func BenchmarkFigure5a(b *testing.B) { benchArtefact(b, "fig5a") }
func BenchmarkFigure5b(b *testing.B) { benchArtefact(b, "fig5b") }
func BenchmarkFigure6(b *testing.B)  { benchArtefact(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchArtefact(b, "fig7") }
func BenchmarkFigure8a(b *testing.B) { benchArtefact(b, "fig8a") }
func BenchmarkFigure8b(b *testing.B) { benchArtefact(b, "fig8b") }
func BenchmarkFigure9a(b *testing.B) { benchArtefact(b, "fig9a") }
func BenchmarkFigure9b(b *testing.B) { benchArtefact(b, "fig9b") }
func BenchmarkFigure10(b *testing.B) { benchArtefact(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchArtefact(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchArtefact(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchArtefact(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { benchArtefact(b, "fig14") }
func BenchmarkTable1(b *testing.B)   { benchArtefact(b, "tab1") }
func BenchmarkTable2(b *testing.B)   { benchArtefact(b, "tab2") }
func BenchmarkTable3(b *testing.B)   { benchArtefact(b, "tab3") }

func BenchmarkScalability(b *testing.B)     { benchArtefact(b, "scale") }
func BenchmarkReconfiguration(b *testing.B) { benchArtefact(b, "reconf") }
func BenchmarkReplanLab(b *testing.B)       { benchArtefact(b, "replan") }

// --- component micro-benchmarks ---------------------------------------------

var benchZone = cluster.GCPZone("us-central1", 'a')

func benchLab(b *testing.B, cfg model.Config, gpus ...core.GPUType) (*sim.Simulator, *groundtruth.Engine) {
	b.Helper()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return sim.New(cfg, prof), groundtruth.New(cfg)
}

func benchPlan(cfg model.Config, g core.GPUType, pp, dp, tp, mbs int) core.Plan {
	plan := core.Plan{MicroBatchSize: mbs}
	first := 0
	for _, n := range core.SplitLayers(cfg.Layers, pp) {
		st := core.StagePlan{FirstLayer: first, NumLayers: n}
		for k := 0; k < dp; k++ {
			st.Replicas = append(st.Replicas, core.StageReplica{GPU: g, TP: tp, Zone: benchZone})
		}
		plan.Stages = append(plan.Stages, st)
		first += n
	}
	return plan
}

// BenchmarkSimulatorEstimate measures one analytical plan evaluation — the
// planner's inner loop (§4.3).
func BenchmarkSimulatorEstimate(b *testing.B) {
	cfg := model.OPT350M()
	s, _ := benchLab(b, cfg, core.A100)
	plan := benchPlan(cfg, core.A100, 4, 8, 2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Estimate(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEstimate measures the overhauled estimate hot path with
// allocation reporting: table-driven stage timings, pooled scratch, and
// per-pipeline dedup. The homogeneous case collapses all DP pipelines to
// one makespan evaluation; the mixed case pays one per distinct timing
// vector.
func BenchmarkSimEstimate(b *testing.B) {
	cfg := model.OPT350M()
	homPlan := benchPlan(cfg, core.A100, 4, 8, 2, 2)
	s, _ := benchLab(b, cfg, core.A100, core.V100)
	mixPlan := benchPlan(cfg, core.A100, 4, 8, 2, 2)
	for i := range mixPlan.Stages {
		mixPlan.Stages[i].Replicas[1].GPU = core.V100 // second pipeline differs
	}
	for _, bc := range []struct {
		name string
		plan core.Plan
	}{
		{"homogeneous", homPlan},
		{"mixed-replicas", mixPlan},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Estimate(bc.plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroundTruthMeasure measures one discrete-event execution — the
// testbed substitute's cost per deployment.
func BenchmarkGroundTruthMeasure(b *testing.B) {
	cfg := model.OPT350M()
	_, gt := benchLab(b, cfg, core.A100)
	plan := benchPlan(cfg, core.A100, 4, 8, 2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gt.Measure(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerParallel measures the parallel search engine: the Table 1
// headline pools at workers=1/4/NumCPU. The chosen plan is identical at
// every worker count; only wall-clock changes, which is the speedup the
// perf trajectory tracks.
func BenchmarkPlannerParallel(b *testing.B) {
	cfg := model.OPT350M()
	pools := []struct {
		name string
		gpus []core.GPUType
		pool *cluster.Pool
	}{
		{
			name: "homogeneous128",
			gpus: []core.GPUType{core.A100},
			pool: cluster.NewPool().Set(benchZone, core.A100, 128),
		},
		{
			name: "heterogeneous",
			gpus: []core.GPUType{core.A100, core.V100},
			pool: cluster.NewPool().Set(benchZone, core.A100, 64).Set(benchZone, core.V100, 64),
		},
	}
	workerCounts := []int{1, 4, goruntime.NumCPU()}
	for _, pc := range pools {
		s, _ := benchLab(b, cfg, pc.gpus...)
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", pc.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pl := planner.New(cfg, s, planner.Options{
						Objective:  core.MaxThroughput,
						Heuristics: planner.AllHeuristics(),
						Workers:    w,
					})
					if _, err := pl.Plan(pc.pool); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReplanCold is the controller's pre-warm-start hot path: every
// distinct availability snapshot of a preemption-storm trace replans from
// scratch. Its warm counterpart, the same chain on one warm cache, is the
// BENCH_planner.json row replan_warm/preemption-storm (BenchmarkSuite in
// cmd/sailor-bench).
func BenchmarkReplanCold(b *testing.B) {
	cfg := model.OPT350M()
	s, _ := benchLab(b, cfg, core.A100)
	sc, ok := trace.ScenarioByName("preemption-storm")
	if !ok {
		b.Fatal("preemption-storm not registered")
	}
	pools := sc.Trace(1).DistinctPools()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pool := range pools {
			pl := planner.New(cfg, s, planner.Options{
				Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
			})
			if _, err := pl.Plan(pool); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(pools)), "replans/op")
}

// BenchmarkHeuristicAblation quantifies D2: search cost without H2/H3 on a
// small pool where the exhaustive variant still terminates.
func BenchmarkHeuristicAblation(b *testing.B) {
	cfg := model.OPT350M()
	s, _ := benchLab(b, cfg, core.A100)
	pool := cluster.NewPool().Set(benchZone, core.A100, 16)
	for _, bc := range []struct {
		name string
		h    planner.Heuristics
	}{
		{"all-heuristics", planner.AllHeuristics()},
		{"dp-only", planner.Heuristics{H6MergeZones: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pl := planner.New(cfg, s, planner.Options{
					Objective: core.MaxThroughput, Heuristics: bc.h,
				})
				if _, err := pl.Plan(pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoryFootprint measures the per-worker estimator (§4.3).
func BenchmarkMemoryFootprint(b *testing.B) {
	cfg := model.GPTNeo27B()
	w := memory.WorkerShape{Layers: 8, StageIdx: 1, PP: 4, TP: 2, MicroBS: 4, NumMicro: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = memory.WorkerFootprint(cfg, w).Total()
	}
}

// BenchmarkRingAllReduceModel measures the collective cost model.
func BenchmarkRingAllReduceModel(b *testing.B) {
	l := hardware.DefaultNetwork().Link(benchZone, benchZone)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = collective.RingAllReduce(l, 512<<20, 16)
	}
}

// Benchmark1F1BMakespan measures the exact DAG evaluation the ground truth
// uses, at the scale of one Figure-7 pipeline.
func Benchmark1F1BMakespan(b *testing.B) {
	sched, err := pipeline.OneFOneB(8, 64)
	if err != nil {
		b.Fatal(err)
	}
	f := func(int, int) float64 { return 0.010 }
	g := func(int, int) float64 { return 0.020 }
	c := func(int) float64 { return 0.001 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Makespan(sched, f, g, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfilerCollect measures a full profiling campaign for two GPU
// types (§4.1).
func BenchmarkProfilerCollect(b *testing.B) {
	cfg := model.OPT350M()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.Collect(cfg, []core.GPUType{core.A100, core.V100}, nil, profiler.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
