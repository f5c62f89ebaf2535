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
// cmd/sailor-bench to pretty-print the regenerated tables.
package repro

import (
	"context"
	"fmt"
	"os"
	goruntime "runtime"
	"sync"
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
	"repro/sailor"
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
	per := cfg.Layers / pp
	rem := cfg.Layers - per*pp
	plan := core.Plan{MicroBatchSize: mbs}
	first := 0
	for i := 0; i < pp; i++ {
		n := per
		if i < rem {
			n++
		}
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

// BenchmarkPlannerHomogeneous128 is the Table 1 headline: Sailor's full
// search on 128 A100 GPUs.
func BenchmarkPlannerHomogeneous128(b *testing.B) {
	cfg := model.OPT350M()
	s, _ := benchLab(b, cfg, core.A100)
	pool := cluster.NewPool().Set(benchZone, core.A100, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := planner.New(cfg, s, planner.Options{
			Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
		})
		if _, err := pl.Plan(pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerHeterogeneous measures the 2-GPU-type search that
// dominates Sailor's own scalability costs (§5.3).
func BenchmarkPlannerHeterogeneous(b *testing.B) {
	cfg := model.OPT350M()
	s, _ := benchLab(b, cfg, core.A100, core.V100)
	pool := cluster.NewPool().Set(benchZone, core.A100, 64).Set(benchZone, core.V100, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := planner.New(cfg, s, planner.Options{
			Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
		})
		if _, err := pl.Plan(pool); err != nil {
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

// BenchmarkServicePlanThroughput measures the multi-tenant front door: 4
// concurrent tenants issuing plan requests against one sailor.Service,
// with the cross-tenant planner concurrency bound at 1 and at NumCPU. One
// iteration = one plan request per tenant.
func BenchmarkServicePlanThroughput(b *testing.B) {
	const tenants = 4
	var pools []*cluster.Pool
	for i := 0; i < tenants; i++ {
		pools = append(pools, cluster.NewPool().Set(benchZone, core.A100, 16+8*i))
	}
	for _, maxConc := range []int{1, goruntime.NumCPU()} {
		b.Run(fmt.Sprintf("tenants=%d/max-concurrent=%d", tenants, maxConc), func(b *testing.B) {
			svc := sailor.NewService(sailor.ServiceConfig{Workers: 1, MaxConcurrent: maxConc})
			for i := 0; i < tenants; i++ {
				if err := svc.OpenJob(fmt.Sprintf("tenant-%d", i), sailor.OPT350M(),
					[]core.GPUType{core.A100}, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for t := 0; t < tenants; t++ {
					wg.Add(1)
					go func(t int) {
						defer wg.Done()
						_, err := svc.Plan(context.Background(), fmt.Sprintf("tenant-%d", t),
							pools[t], core.MaxThroughput, core.Constraints{})
						if err != nil {
							b.Error(err)
						}
					}(t)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkFleetRebalance measures the fleet scheduler's preemption-aware
// replanning path: one op = the whole preemption-storm trace driven through
// a shared ledger with N contending jobs (per-job cap 8 GPUs, fleet base
// 4N). Jobs keep their warm caches across ops, so this tracks the warm
// steady state of Service.Rebalance.
func BenchmarkFleetRebalance(b *testing.B) {
	sc, ok := trace.ScenarioByName("preemption-storm")
	if !ok {
		b.Fatal("preemption-storm not registered")
	}
	for _, jobs := range []int{4, 16} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			tr := sc.TraceWith(1, trace.ScenarioOpts{Base: 4 * jobs})
			svc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
			for i := 0; i < jobs; i++ {
				if err := svc.OpenJob(fmt.Sprintf("job-%d", i), sailor.OPT350M(),
					[]core.GPUType{core.A100}, jobs-i); err != nil {
					b.Fatal(err)
				}
			}
			if _, _, err := experiments.DriveFleetStorm(svc, tr, 8); err != nil { // warm the caches
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.DriveFleetStorm(svc, tr, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetRebalanceCold measures the cold fleet admission pass: one
// op = reopen one job per GPU type (dropping warm caches and leases), reset
// the ledger, and run a single Rebalance that admits all four jobs from
// scratch, one search after another in admission order.
func BenchmarkFleetRebalanceCold(b *testing.B) {
	types := []core.GPUType{core.A100, core.V100, core.RTX3090, core.T4}
	pool := cluster.NewPool()
	for _, g := range types {
		pool.Set(benchZone, g, 64)
	}
	b.Run("jobs=4", func(b *testing.B) {
		svc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
		m := sailor.OPT350M()
		// Profile the per-type Systems once so ops measure the search,
		// not first-touch profiling.
		if _, _, err := experiments.DriveFleetColdRebalance(svc, m, types, pool); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		var explored, hits int
		for i := 0; i < b.N; i++ {
			var err error
			explored, hits, err = experiments.DriveFleetColdRebalance(svc, m, types, pool)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(explored), "explored/op")
		b.ReportMetric(float64(hits), "cache-hits/op")
	})
}

// replanPools materialises the distinct availability snapshots of a
// preemption-storm trace — the replan sequence the elastic controller
// issues while surviving the churn.
func replanPools(b *testing.B) []*cluster.Pool {
	b.Helper()
	sc, ok := trace.ScenarioByName("preemption-storm")
	if !ok {
		b.Fatal("preemption-storm not registered")
	}
	return sc.Trace(1).DistinctPools()
}

// BenchmarkReplanCold is the controller's pre-warm-start hot path: every
// availability event replans from scratch.
func BenchmarkReplanCold(b *testing.B) {
	cfg := model.OPT350M()
	s, _ := benchLab(b, cfg, core.A100)
	pools := replanPools(b)
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

// BenchmarkReplanWarm replays the same preemption storm through the
// warm-start path: one planner, a persistent WarmCache, and Replan chained
// from the previously chosen plan. The chosen plans are identical to the
// cold run's (asserted in internal/planner's warm tests); only the search
// cost drops — the acceptance target is >= 2x over BenchmarkReplanCold.
func BenchmarkReplanWarm(b *testing.B) {
	cfg := model.OPT350M()
	s, _ := benchLab(b, cfg, core.A100)
	pools := replanPools(b)
	pl := planner.New(cfg, s, planner.Options{
		Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
		Warm: planner.NewWarmCache(),
	})
	var hits, explored int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var prev core.Plan
		hits, explored = 0, 0
		for _, pool := range pools {
			res, err := pl.Replan(prev, pool)
			if err != nil {
				b.Fatal(err)
			}
			prev = res.Plan
			hits += res.CacheHits
			explored += res.Explored
		}
	}
	b.ReportMetric(float64(len(pools)), "replans/op")
	b.ReportMetric(float64(hits), "cache-hits/op")
	b.ReportMetric(float64(explored), "explored/op")
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
