package main

// The planner perf harness: a fixed suite of cold-search, warm-replan,
// multi-tenant-service, wire-codec and recovery benchmarks. Each row of the
// committed document (BENCH_planner.json) is defined once, as a Go
// benchmark in perfSuite: -json runs the suite through testing.Benchmark
// and writes the document, and BenchmarkSuite runs the same functions
// under `go test -bench`. The committed document is the repo's perf
// trajectory; CI regenerates it on every change and gates it with
// -compare, so planner regressions show up as a diff, not a surprise.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/sailor"
)

// benchSchemaVersion and benchKind identify a BENCH_planner.json document;
// -compare refuses documents of another version or kind.
const (
	benchSchemaVersion = 1
	benchKind          = "planner-bench"
)

// benchResult is one benchmark's row in the document.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Explored and CacheHits are the planner telemetry the row reports
	// (search work, not wall-clock).
	Explored  int `json:"explored"`
	CacheHits int `json:"cache_hits"`
	// LiveHeapBytes is the heap a row's subject still holds after a final GC
	// (only the rows that measure retention report it).
	LiveHeapBytes int64 `json:"live_heap_bytes,omitempty"`
	// Records is the journal records one op replays (recovery rows only).
	Records int `json:"records,omitempty"`
}

// benchDoc is the BENCH_planner.json document.
type benchDoc struct {
	V       int           `json:"v"`
	Kind    string        `json:"kind"`
	Go      string        `json:"go"`
	Workers int           `json:"workers"`
	Benches []benchResult `json:"benches"`
}

// The units under which rows report their counters with b.ReportMetric,
// one per benchResult counter.
const (
	unitExplored  = "explored/op"
	unitCacheHits = "cache-hits/op"
	unitLiveHeap  = "live-heap-B"
	unitRecords   = "records/op"
)

// perfRow is one row of the document: its name and the benchmark that
// measures it. Setup runs before b.ResetTimer, so ns, bytes and allocs per
// op are the measured loop's alone.
type perfRow struct {
	name  string
	bench func(b *testing.B)
}

// perfSuite returns the document's rows in order. workers is the planner
// search parallelism of the rows that search directly, and the service
// row's planner concurrency bound.
func perfSuite(workers int) []perfRow {
	geoHetero := cluster.NewPool().Set(perfZone, core.A100, 20).Set(cluster.GCPZone("us-central1", 'b'), core.V100, 20).
		Set(cluster.GCPZone("europe-west4", 'a'), core.A100, 8)
	hetero := []core.GPUType{core.A100, core.V100}
	return []perfRow{
		coldRow("planner_cold/homogeneous128", workers, cluster.NewPool().Set(perfZone, core.A100, 128),
			core.MaxThroughput, core.Constraints{}, core.A100),
		coldRow("planner_cold/heterogeneous64", workers, cluster.NewPool().Set(perfZone, core.A100, 32).Set(perfZone, core.V100, 32),
			core.MaxThroughput, core.Constraints{}, hetero...),
		// Two regions, so the DP's memo keys see suffixes that start past
		// the first region: the one row whose search work watches them.
		coldRow("planner_cold/geo-hetero", workers, geoHetero, core.MaxThroughput, core.Constraints{}, hetero...),
		// The same pool under cold-hetero's min-cost op: cheapest plan
		// above a 0.08 it/s throughput floor.
		coldRow("planner_cold/min-cost", workers, geoHetero, core.MinCost, core.Constraints{MinThroughput: 0.08}, hetero...),
		{"replan_warm/preemption-storm", func(b *testing.B) { replanWarm(b, workers) }},
		{"replan_novel/warm-churn", func(b *testing.B) { replanNovel(b, workers) }},
		{fmt.Sprintf("service_warm_churn/tenants=%d", churnTenants), serviceWarmChurn},
		{"wire_codec/warm-churn", wireCodec},
		{"service_plan/tenants=4", func(b *testing.B) { servicePlan(b, workers) }},
		{"fleet_rebalance/jobs=4", func(b *testing.B) { fleetRebalance(b, 4) }},
		{"fleet_rebalance/jobs=16", func(b *testing.B) { fleetRebalance(b, 16) }},
		{"fleet_rebalance_cold/jobs=4", fleetRebalanceCold},
		{"persist_recover/fleet-storm", persistRecover},
	}
}

// measure times op over b.N iterations and reports the planner counters
// of the last one.
func measure(b *testing.B, op func() (explored, hits int, err error)) {
	b.ReportAllocs()
	b.ResetTimer()
	var explored, hits int
	for i := 0; i < b.N; i++ {
		var err error
		if explored, hits, err = op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSearch(b, explored, hits)
}

// reportSearch reports a row's planner counters.
func reportSearch(b *testing.B, explored, hits int) {
	b.ReportMetric(float64(explored), unitExplored)
	b.ReportMetric(float64(hits), unitCacheHits)
}

// perfZone is the zone of every single-zone pool in the suite.
var perfZone = cluster.GCPZone("us-central1", 'a')

// perfLab builds the shared evaluator for the planner benches.
func perfLab(b *testing.B, gpus ...core.GPUType) (model.Config, *sim.Simulator) {
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return cfg, sim.New(cfg, prof)
}

// coldRow is a planner_cold row: one op builds a planner and searches the
// pool from scratch.
func coldRow(name string, workers int, pool *cluster.Pool, obj core.Objective, cons core.Constraints, gpus ...core.GPUType) perfRow {
	return perfRow{name, func(b *testing.B) {
		cfg, ev := perfLab(b, gpus...)
		measure(b, func() (int, int, error) {
			res, err := planner.New(cfg, ev, planner.Options{
				Objective: obj, Constraints: cons, Heuristics: planner.AllHeuristics(), Workers: workers,
			}).Plan(pool)
			return res.Explored, res.CacheHits, err
		})
	}}
}

// replanWarm is replan_warm/preemption-storm: one op replans the distinct
// pools of the preemption-storm trace in order on one planner whose warm
// cache an untimed chain filled, each replan from the plan before it.
func replanWarm(b *testing.B, workers int) {
	pools := trace.PreemptionStorm().Trace(1).DistinctPools()
	cfg, ev := perfLab(b, core.A100)
	pl := planner.New(cfg, ev, planner.Options{
		Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
		Workers: workers, Warm: planner.NewWarmCache(),
	})
	chain := func() (explored, hits int, err error) {
		var prev core.Plan
		for _, pool := range pools {
			res, err := pl.Replan(prev, pool)
			if err != nil {
				return 0, 0, err
			}
			prev, explored, hits = res.Plan, explored+res.Explored, hits+res.CacheHits
		}
		return explored, hits, nil
	}
	if _, _, err := chain(); err != nil { // populate the cache
		b.Fatal(err)
	}
	measure(b, chain)
}

// replanNovel is replan_novel/warm-churn: one op is novelChain over the
// warm-churn traces — the first visits of a pool, which a warm replan
// answers with a full search.
func replanNovel(b *testing.B, workers int) {
	cfg, ev := perfLab(b, core.A100)
	traces, err := novelPools()
	if err != nil {
		b.Fatal(err)
	}
	measure(b, func() (int, int, error) { return novelChain(cfg, ev, workers, traces) })
}

// serviceWarmChurn is the in-process replica of the end-to-end warm-churn
// workload (benchmarks/loadgen): one Service at the daemon's settings, eight
// A100 tenants each cycling the distinct pools of one scenario trace, one
// op = one Replan. Beside bytes and allocs per op it reports the heap the
// service still holds after a final GC — what the warm caches retain, the
// number the end-to-end rss_p95_mb follows. Its explored and cache-hits
// are the totals of one full round (every tenant through its whole cycle)
// after two rounds filled the caches, not per-op values.
func serviceWarmChurn(b *testing.B) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	heapBefore := int64(m.HeapAlloc)

	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1, MaxConcurrent: 2})
	pools := make([][]*cluster.Pool, churnTenants)
	prev := make([]core.Plan, churnTenants)
	round := 0
	for t := range pools {
		var err error
		if pools[t], err = churnPools(t); err != nil {
			b.Fatal(err)
		}
		round = max(round, churnTenants*len(pools[t]))
		if err := svc.OpenJob(fmt.Sprint("churn-", t), sailor.OPT350M(), []core.GPUType{core.A100}, 0); err != nil {
			b.Fatal(err)
		}
	}
	next := 0
	drive := func(n int) (explored, hits int) {
		for end := next + n; next < end; next++ {
			t, step := next%churnTenants, next/churnTenants
			res, err := svc.Replan(context.Background(), fmt.Sprint("churn-", t), prev[t],
				pools[t][step%len(pools[t])], core.MaxThroughput, core.Constraints{})
			if err != nil {
				b.Fatalf("service_warm_churn op %d: %v", next, err)
			}
			prev[t], explored, hits = res.Plan, explored+res.Explored, hits+res.CacheHits
		}
		return explored, hits
	}
	drive(2 * round) // fill the caches
	explored, hits := drive(round)
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
	b.StopTimer()
	reportSearch(b, explored, hits)
	runtime.GC()
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(svc)
	b.ReportMetric(float64(max(int64(m.HeapAlloc)-heapBefore, 0)), unitLiveHeap)
}

// wireCodec is wire_codec/warm-churn: one op is codecRoundTrip of one of
// the warm-churn Replan pairs, taken in turn. No planner work, so its
// explored and cache-hits are zero; its allocs/op is the codec's.
func wireCodec(b *testing.B) {
	pairs, err := codecPairs()
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	measure(b, func() (int, int, error) {
		p := pairs[next%len(pairs)]
		next++
		return 0, 0, codecRoundTrip(p)
	})
}

// servicePlan is service_plan/tenants=4, the multi-tenant front door: one
// op = one concurrent Plan request per tenant against one Service, with
// the cross-tenant planner concurrency bound at workers.
func servicePlan(b *testing.B, workers int) {
	const tenants = 4
	var pools []*cluster.Pool
	for i := 0; i < tenants; i++ {
		pools = append(pools, cluster.NewPool().Set(perfZone, core.A100, 16+8*i))
	}
	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1, MaxConcurrent: workers})
	for i := 0; i < tenants; i++ {
		if err := svc.OpenJob(fmt.Sprintf("bench-%d", i), sailor.OPT350M(), []core.GPUType{core.A100}, 0); err != nil {
			b.Fatal(err)
		}
	}
	measure(b, func() (explored, hits int, err error) {
		var wg sync.WaitGroup
		results := make([]sailor.PlanResult, tenants)
		errs := make([]error, tenants)
		for t := 0; t < tenants; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				results[t], errs[t] = svc.Plan(context.Background(), fmt.Sprintf("bench-%d", t),
					pools[t], core.MaxThroughput, core.Constraints{})
			}(t)
		}
		wg.Wait()
		for t := 0; t < tenants; t++ {
			if errs[t] != nil {
				return 0, 0, errs[t]
			}
			explored += results[t].Explored
			hits += results[t].CacheHits
		}
		return explored, hits, nil
	})
}

// fleetRebalance is a fleet_rebalance row: one op = driveFleetStorm of the
// preemption-storm trace (fleet base 4 per job) through a shared capacity
// ledger with jobs contending jobs, per-job cap 8 GPUs. Jobs keep their
// warm caches across ops (an untimed drive fills them), so this tracks
// the warm steady state of Service.Rebalance.
func fleetRebalance(b *testing.B, jobs int) {
	tr := trace.PreemptionStorm().TraceWith(1, trace.ScenarioOpts{Base: 4 * jobs})
	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
	for i := 0; i < jobs; i++ {
		if err := svc.OpenJob(fmt.Sprintf("fleet-%d", i), sailor.OPT350M(), []core.GPUType{core.A100}, jobs-i); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := driveFleetStorm(svc, tr, 8); err != nil { // warm the caches
		b.Fatal(err)
	}
	measure(b, func() (int, int, error) { return driveFleetStorm(svc, tr, 8) })
}

// fleetRebalanceCold is fleet_rebalance_cold/jobs=4: one op is
// driveFleetColdRebalance of one job per GPU type on a four-type pool, 64
// GPUs of each. An untimed op profiles the per-type Systems first.
func fleetRebalanceCold(b *testing.B) {
	types := []core.GPUType{core.A100, core.V100, core.RTX3090, core.T4}
	pool := cluster.NewPool()
	for _, g := range types {
		pool.Set(perfZone, g, 64)
	}
	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
	m := sailor.OPT350M()
	if _, _, err := driveFleetColdRebalance(svc, m, types, pool); err != nil {
		b.Fatal(err)
	}
	measure(b, func() (int, int, error) { return driveFleetColdRebalance(svc, m, types, pool) })
}

// persistRecover is persist_recover/fleet-storm, crash recovery of a fleet
// journal (writeFleetJournal): one op is persist.Open of the data dir —
// load the snapshot, replay the whole journal.
func persistRecover(b *testing.B) {
	dir := b.TempDir()
	if err := writeFleetJournal(dir); err != nil {
		b.Fatal(err)
	}
	cfg := persist.Config{Fsync: persist.FsyncNone}
	records := 0
	measure(b, func() (int, int, error) {
		_, rec, err := persist.Open(dir, cfg)
		if err != nil {
			return 0, 0, err
		}
		records = rec.RecordsReplayed
		return 0, 0, nil
	})
	b.ReportMetric(float64(records), unitRecords)
}

// driveFleetStorm is the op of the fleet_rebalance rows: reset the
// service's fleet ledger to an empty pool with the given per-job cap, then
// replay the trace through it — every event mutates the fleet and a
// Rebalance pass replans the broken and waiting jobs warm in priority
// order. Returns the accumulated planner telemetry.
func driveFleetStorm(svc *sailor.Service, tr *trace.Trace, jobCap int) (explored, hits int, err error) {
	if err := svc.SetFleet(cluster.NewPool(), jobCap); err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	for _, ev := range tr.Events {
		if _, err := svc.FleetEvent(ev); err != nil {
			return 0, 0, err
		}
		steps, err := svc.Rebalance(ctx)
		if err != nil {
			return 0, 0, err
		}
		for _, s := range steps {
			if s.Result != nil {
				explored += s.Result.Explored
				hits += s.Result.CacheHits
			}
		}
	}
	return explored, hits, nil
}

// driveFleetColdRebalance is the op of the fleet_rebalance_cold row:
// reopen one job per GPU type — dropping every warm cache and lease —
// reset the ledger to the given pool, then run a single Rebalance pass
// that must admit all jobs from scratch, one cold search per job in
// admission order. Returns the accumulated planner telemetry.
func driveFleetColdRebalance(svc *sailor.Service, m sailor.Model, types []core.GPUType, pool *cluster.Pool) (explored, hits int, err error) {
	for i, g := range types {
		name := fmt.Sprintf("cold-%d", i)
		_ = svc.CloseJob(name)
		if err := svc.OpenJob(name, m, []core.GPUType{g}, len(types)-i); err != nil {
			return 0, 0, err
		}
	}
	if err := svc.SetFleet(pool, 0); err != nil {
		return 0, 0, err
	}
	steps, err := svc.Rebalance(context.Background())
	if err != nil {
		return 0, 0, err
	}
	for _, s := range steps {
		if s.Result == nil {
			return 0, 0, fmt.Errorf("cold rebalance did not admit job %q: %s", s.Job, s.Error)
		}
		explored += s.Result.Explored
		hits += s.Result.CacheHits
	}
	return explored, hits, nil
}

// writeFleetJournal leaves in dir what a durable Service (fsync off) killed
// without a final snapshot leaves: eight prioritised A100 jobs through
// sixteen preemption storms, every event followed by a Rebalance, as the
// end-to-end fleet-durable workload drives its daemon.
func writeFleetJournal(dir string) (err error) {
	store, _, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
	if err != nil {
		return err
	}
	defer func() {
		// Close reports a poisoned journal or a failed final close.
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()
	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
	if err := store.Rotate(svc.PersistState()); err != nil {
		return err
	}
	svc.SetRecorder(store)
	for i := 0; i < 8; i++ {
		if err := svc.OpenJob(fmt.Sprint("fleet-", i), sailor.OPT350M(), []core.GPUType{core.A100}, 8-i); err != nil {
			return err
		}
	}
	for s := int64(0); s < 16; s++ {
		if _, _, err := driveFleetStorm(svc, trace.PreemptionStorm().TraceWith(s, trace.ScenarioOpts{Base: 32}), 8); err != nil {
			return err
		}
	}
	return nil
}

// codecPair is one warm-churn Replan as it crosses the wire: the request's
// previous plan and pool, and the reply's result.
type codecPair struct {
	job  string
	prev core.Plan
	pool *cluster.Pool
	res  sailor.PlanResult
}

// codecPairs replans every warm-churn tenant's distinct pools once, in
// order, on one Service, and returns each replan as a request/response pair.
func codecPairs() ([]codecPair, error) {
	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
	var pairs []codecPair
	for t := 0; t < churnTenants; t++ {
		pools, err := churnPools(t)
		if err != nil {
			return nil, err
		}
		job := fmt.Sprint("churn-", t)
		if err := svc.OpenJob(job, sailor.OPT350M(), []core.GPUType{core.A100}, 0); err != nil {
			return nil, err
		}
		var prev core.Plan
		for _, pool := range pools {
			res, err := svc.Replan(context.Background(), job, prev, pool, core.MaxThroughput, core.Constraints{})
			if err != nil {
				return nil, fmt.Errorf("wire_codec %s: %w", job, err)
			}
			pairs = append(pairs, codecPair{job: job, prev: prev, pool: pool, res: res})
			prev = res.Plan
		}
	}
	return pairs, nil
}

// codecRoundTrip is one warm-churn Replan's trip through the wire codec,
// both directions as the daemon and its client run them: encode the
// request and the reply with encoding/json, decode each into a fresh
// message with wire.Decode (which checks its version), then check and
// convert their plans, pool and constraints back to domain types.
func codecRoundTrip(p codecPair) error {
	req, err := json.Marshal(wire.ReplanRequest{V: wire.Version, Job: p.job, Prev: wire.FromPlan(p.prev),
		Pool: wire.FromPool(p.pool), Objective: core.MaxThroughput.String(), Constraints: wire.FromConstraints(core.Constraints{})})
	if err != nil {
		return err
	}
	resp, err := json.Marshal(wire.PlanResponse{V: wire.Version, Result: wire.FromResult(p.res)})
	if err != nil {
		return err
	}
	var q wire.ReplanRequest
	var r wire.PlanResponse
	if err := wire.Decode(req, &q); err != nil {
		return err
	}
	if err := wire.Decode(resp, &r); err != nil {
		return err
	}
	if err := q.Prev.Check(); err != nil {
		return err
	}
	if err := r.Result.Plan.Check(); err != nil {
		return err
	}
	q.Prev.Core()
	q.Pool.Cluster()
	q.Constraints.Core()
	r.Result.Result()
	return nil
}

// churnTenants is the number of tenant traces the warm-churn workload
// cycles.
const churnTenants = 8

// churnPools returns warm-churn tenant t's replan sequence: the distinct
// pools of the t%4-th scenario below replayed at seed t and the t%3-th
// base, as the warm-churn workload's tenant slots do.
func churnPools(t int) ([]*cluster.Pool, error) {
	scenarios := []string{"preemption-storm", "diurnal-wave", "zone-outage", "geo-shift"}
	bases := []int{16, 24, 32}
	sc, ok := trace.ScenarioByName(scenarios[t%len(scenarios)])
	if !ok {
		return nil, fmt.Errorf("%s scenario not registered", scenarios[t%len(scenarios)])
	}
	return sc.TraceWith(int64(t), trace.ScenarioOpts{Base: bases[t%len(bases)]}).DistinctPools(), nil
}

// novelPools returns each warm-churn tenant's pools in first-visit order,
// every revisit removed: a replan chain over one never repeats a pool, so
// no stored search result answers it and every replan searches in full.
func novelPools() ([][]*cluster.Pool, error) {
	traces := make([][]*cluster.Pool, churnTenants)
	for t := range traces {
		pools, err := churnPools(t)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, pool := range pools {
			if k := pool.String(); !seen[k] {
				seen[k] = true
				traces[t] = append(traces[t], pool)
			}
		}
	}
	return traces, nil
}

// novelChain replans every trace's novel pools in order, each trace on a
// planner with a fresh WarmCache, and sums the search counters.
func novelChain(cfg model.Config, ev planner.Evaluator, workers int, traces [][]*cluster.Pool) (explored, hits int, err error) {
	for _, pools := range traces {
		pl := planner.New(cfg, ev, planner.Options{
			Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
			Workers: workers, Warm: planner.NewWarmCache(),
		})
		var prev core.Plan
		for _, pool := range pools {
			res, err := pl.Replan(prev, pool)
			if err != nil {
				return 0, 0, err
			}
			prev, explored, hits = res.Plan, explored+res.Explored, hits+res.CacheHits
		}
	}
	return explored, hits, nil
}

// runPerfSuite runs every row through testing.Benchmark and assembles the
// document from the results and the counters the rows reported.
func runPerfSuite(workers int, log io.Writer) (benchDoc, error) {
	doc := benchDoc{V: benchSchemaVersion, Kind: benchKind, Go: runtime.Version(), Workers: workers}
	for _, row := range perfSuite(workers) {
		r := testing.Benchmark(row.bench)
		if r.N == 0 { // testing.Benchmark drops a failed benchmark's output
			return doc, fmt.Errorf("%s failed; `go test -run '^$' -bench 'BenchmarkSuite/%s$' ./cmd/sailor-bench` prints why",
				row.name, row.name)
		}
		res := benchResult{
			Name:          row.name,
			NsPerOp:       float64(r.NsPerOp()),
			AllocsPerOp:   r.AllocsPerOp(),
			BytesPerOp:    r.AllocedBytesPerOp(),
			Explored:      int(r.Extra[unitExplored]),
			CacheHits:     int(r.Extra[unitCacheHits]),
			LiveHeapBytes: int64(r.Extra[unitLiveHeap]),
			Records:       int(r.Extra[unitRecords]),
		}
		fmt.Fprintf(log, "%-36s %12.0f ns/op %8d allocs/op  explored %d cache_hits %d\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.Explored, res.CacheHits)
		doc.Benches = append(doc.Benches, res)
	}
	return doc, nil
}

// writeBenchJSON runs the suite and writes the document to path.
func writeBenchJSON(path string, workers int, log io.Writer) error {
	doc, err := runPerfSuite(workers, log)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s (%d benches, workers=%d)\n", path, len(doc.Benches), workers)
	return nil
}

// readBenchDoc decodes a BENCH_planner.json document strictly: an unknown
// field, another schema version or another kind is an error.
func readBenchDoc(path string) (benchDoc, error) {
	var doc benchDoc
	f, err := os.Open(path)
	if err != nil {
		return doc, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return doc, fmt.Errorf("%s: malformed document: %w", path, err)
	}
	if doc.V != benchSchemaVersion {
		return doc, fmt.Errorf("%s: schema version %d, want %d", path, doc.V, benchSchemaVersion)
	}
	if doc.Kind != benchKind {
		return doc, fmt.Errorf("%s: kind %q, want %q", path, doc.Kind, benchKind)
	}
	return doc, nil
}

// compareBenchJSON is the CI perf gate: for every row the baseline and the
// candidate share, allocs/op may not regress by more than maxGrowth
// (allocation counts are deterministic up to scheduling, so this is a real
// gate even on shared runners), and the planner's explored and cache_hits
// counters — search work, a pure function of the code — must be identical;
// ns/op deltas are printed but only informational. Rows present in one
// document only are reported and skipped, so adding or retiring a bench
// never trips the gate (TestSuiteRowsMatchCommitted keeps the suite's rows
// and the committed document's the same).
func compareBenchJSON(newPath, basePath string, maxGrowth float64, w io.Writer) error {
	load := func(path string) (map[string]benchResult, []string, error) {
		doc, err := readBenchDoc(path)
		if err != nil {
			return nil, nil, err
		}
		m := make(map[string]benchResult, len(doc.Benches))
		var order []string
		for _, b := range doc.Benches {
			m[b.Name] = b
			order = append(order, b.Name)
		}
		return m, order, nil
	}
	base, _, err := load(basePath)
	if err != nil {
		return err
	}
	cand, order, err := load(newPath)
	if err != nil {
		return err
	}
	var failures []string
	for _, name := range order {
		n := cand[name]
		o, ok := base[name]
		if !ok {
			fmt.Fprintf(w, "%-36s new row (no baseline)\n", name)
			continue
		}
		allocsDelta := ratioDelta(float64(n.AllocsPerOp), float64(o.AllocsPerOp))
		nsDelta := ratioDelta(n.NsPerOp, o.NsPerOp)
		verdict := "ok"
		if allocsDelta > maxGrowth {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d -> %d (%+.1f%%, limit %+.0f%%)",
				name, o.AllocsPerOp, n.AllocsPerOp, 100*allocsDelta, 100*maxGrowth))
		}
		if n.Explored != o.Explored || n.CacheHits != o.CacheHits {
			verdict = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: explored %d -> %d, cache_hits %d -> %d (must be identical)",
				name, o.Explored, n.Explored, o.CacheHits, n.CacheHits))
		}
		fmt.Fprintf(w, "%-36s allocs/op %8d -> %8d (%+6.1f%%)  explored %d cache_hits %d  %s  [ns/op %+.1f%%, informational]\n",
			name, o.AllocsPerOp, n.AllocsPerOp, 100*allocsDelta, n.Explored, n.CacheHits, verdict, 100*nsDelta)
	}
	for name := range base {
		if _, ok := cand[name]; !ok {
			fmt.Fprintf(w, "%-36s retired (baseline only)\n", name)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("planner perf gate:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// ratioDelta is (n/o)-1 with zero baselines treated as no regression when
// the candidate is also zero and an unbounded one otherwise.
func ratioDelta(n, o float64) float64 {
	if o == 0 {
		if n == 0 {
			return 0
		}
		return 1e9
	}
	return n/o - 1
}
