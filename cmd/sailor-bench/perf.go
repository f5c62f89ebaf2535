package main

// The planner perf harness behind -json: a fixed suite of cold-search,
// warm-replan, multi-tenant-service, wire-codec and recovery benchmarks
// whose results are written as a versioned JSON document
// (BENCH_planner.json). The committed document is the repo's perf
// trajectory; CI regenerates and validates it on every change so planner
// regressions show up as a diff, not a surprise.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/sailor"
)

// benchSchemaVersion is the BENCH_planner.json schema version; -validate
// rejects documents from a different schema by name.
const benchSchemaVersion = 1

// benchResult is one benchmark's row in the document.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Explored and CacheHits are planner telemetry from one instrumented
	// run of the bench body (search work, not wall-clock).
	Explored  int `json:"explored"`
	CacheHits int `json:"cache_hits"`
	// LiveHeapBytes is the heap a row's subject still holds after a final GC
	// (only the rows that measure retention report it).
	LiveHeapBytes int64 `json:"live_heap_bytes,omitempty"`
	// Records is the journal records one op replays (recovery rows only).
	Records int `json:"records,omitempty"`
	// Iters is the iteration count testing.Benchmark settled on — needed
	// for the benchstat text lines, deliberately kept out of the JSON
	// schema (iteration counts are machine noise, not trajectory).
	Iters int `json:"-"`
}

// benchDoc is the BENCH_planner.json document.
type benchDoc struct {
	V       int           `json:"v"`
	Kind    string        `json:"kind"`
	Go      string        `json:"go"`
	Workers int           `json:"workers"`
	Benches []benchResult `json:"benches"`
}

// perfLab builds the shared evaluator for the planner benches.
func perfLab(gpus ...core.GPUType) (*model.Config, *sim.Simulator, error) {
	cfg := model.OPT350M()
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	return &cfg, sim.New(cfg, prof), nil
}

// runPerfSuite executes the perf suite and assembles the document.
func runPerfSuite(workers int) (benchDoc, error) {
	doc := benchDoc{V: benchSchemaVersion, Kind: "planner-bench", Go: runtime.Version(), Workers: workers}

	zone := cluster.GCPZone("us-central1", 'a')
	geoHetero := cluster.NewPool().Set(zone, core.A100, 20).Set(cluster.GCPZone("us-central1", 'b'), core.V100, 20).
		Set(cluster.GCPZone("europe-west4", 'a'), core.A100, 8)
	pools := []struct {
		name string
		gpus []core.GPUType
		pool *cluster.Pool
		obj  core.Objective
		cons core.Constraints
	}{
		{"planner_cold/homogeneous128", []core.GPUType{core.A100},
			cluster.NewPool().Set(zone, core.A100, 128), core.MaxThroughput, core.Constraints{}},
		{"planner_cold/heterogeneous64", []core.GPUType{core.A100, core.V100},
			cluster.NewPool().Set(zone, core.A100, 32).Set(zone, core.V100, 32), core.MaxThroughput, core.Constraints{}},
		// Two regions, so the DP's memo keys see suffixes that start past
		// the first region: the one row whose search work watches them.
		{"planner_cold/geo-hetero", []core.GPUType{core.A100, core.V100},
			geoHetero, core.MaxThroughput, core.Constraints{}},
		// The same pool under cold-hetero's min-cost op: cheapest plan
		// above a 0.08 it/s throughput floor.
		{"planner_cold/min-cost", []core.GPUType{core.A100, core.V100},
			geoHetero, core.MinCost, core.Constraints{MinThroughput: 0.08}},
	}
	for _, pc := range pools {
		cfg, ev, err := perfLab(pc.gpus...)
		if err != nil {
			return doc, err
		}
		mk := func() *planner.Planner {
			return planner.New(*cfg, ev, planner.Options{
				Objective: pc.obj, Constraints: pc.cons, Heuristics: planner.AllHeuristics(), Workers: workers,
			})
		}
		probe, err := mk().Plan(pc.pool)
		if err != nil {
			return doc, fmt.Errorf("%s: %w", pc.name, err)
		}
		r := timed(func() error { _, err := mk().Plan(pc.pool); return err })
		doc.Benches = append(doc.Benches, row(pc.name, r, probe.Explored, probe.CacheHits))
	}

	// Warm replan chain over the preemption-storm availability sequence.
	sc, ok := trace.ScenarioByName("preemption-storm")
	if !ok {
		return doc, fmt.Errorf("preemption-storm scenario not registered")
	}
	stormPools := sc.Trace(1).DistinctPools()
	cfg, ev, err := perfLab(core.A100)
	if err != nil {
		return doc, err
	}
	warmChain := func(pl *planner.Planner) (hits, explored int, err error) {
		var prev core.Plan
		for _, pool := range stormPools {
			res, err := pl.Replan(prev, pool)
			if err != nil {
				return 0, 0, err
			}
			prev = res.Plan
			hits += res.CacheHits
			explored += res.Explored
		}
		return hits, explored, nil
	}
	warmPl := planner.New(*cfg, ev, planner.Options{
		Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
		Workers: workers, Warm: planner.NewWarmCache(),
	})
	if _, _, err := warmChain(warmPl); err != nil { // populate the cache
		return doc, err
	}
	hits, explored, err := warmChain(warmPl)
	if err != nil {
		return doc, err
	}
	r := timed(func() error { _, _, err := warmChain(warmPl); return err })
	doc.Benches = append(doc.Benches, row("replan_warm/preemption-storm", r, explored, hits))

	novel, err := novelRow(*cfg, ev, workers)
	if err != nil {
		return doc, err
	}
	doc.Benches = append(doc.Benches, novel)

	churn, err := warmChurnRow()
	if err != nil {
		return doc, err
	}
	doc.Benches = append(doc.Benches, churn)

	codec, err := wireCodecRow()
	if err != nil {
		return doc, err
	}
	doc.Benches = append(doc.Benches, codec)

	// Multi-tenant service front door: one op = one plan per tenant.
	const tenants = 4
	var svcPools []*cluster.Pool
	for i := 0; i < tenants; i++ {
		svcPools = append(svcPools, cluster.NewPool().Set(zone, core.A100, 16+8*i))
	}
	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1, MaxConcurrent: workers})
	for i := 0; i < tenants; i++ {
		if err := svc.OpenJob(fmt.Sprintf("bench-%d", i), sailor.OPT350M(), []core.GPUType{core.A100}, 0); err != nil {
			return doc, err
		}
	}
	svcOp := func() (explored, hits int, err error) {
		var wg sync.WaitGroup
		results := make([]sailor.PlanResult, tenants)
		errs := make([]error, tenants)
		for t := 0; t < tenants; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				results[t], errs[t] = svc.Plan(context.Background(), fmt.Sprintf("bench-%d", t),
					svcPools[t], core.MaxThroughput, core.Constraints{})
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
	}
	svcExplored, svcHits, err := svcOp()
	if err != nil {
		return doc, err
	}
	r = timed(func() error { _, _, err := svcOp(); return err })
	doc.Benches = append(doc.Benches, row("service_plan/tenants=4", r, svcExplored, svcHits))

	// Fleet scheduler: one op = the whole preemption-storm trace driven
	// through a shared capacity ledger with N contending jobs (per-job cap
	// 8 GPUs, fleet base 4N) — every event preempts leases in admission
	// order and Rebalance replans the broken jobs warm in priority order.
	for _, jobs := range []int{4, 16} {
		fleetTrace := sc.TraceWith(1, trace.ScenarioOpts{Base: 4 * jobs})
		fleetSvc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
		for i := 0; i < jobs; i++ {
			if err := fleetSvc.OpenJob(fmt.Sprintf("fleet-%d", i), sailor.OPT350M(),
				[]core.GPUType{core.A100}, jobs-i); err != nil {
				return doc, err
			}
		}
		if _, _, err := experiments.DriveFleetStorm(fleetSvc, fleetTrace, 8); err != nil { // warm the caches
			return doc, err
		}
		fExplored, fHits, err := experiments.DriveFleetStorm(fleetSvc, fleetTrace, 8)
		if err != nil {
			return doc, err
		}
		r = timed(func() error { _, _, err := experiments.DriveFleetStorm(fleetSvc, fleetTrace, 8); return err })
		doc.Benches = append(doc.Benches, row(fmt.Sprintf("fleet_rebalance/jobs=%d", jobs), r, fExplored, fHits))
	}

	// Cold fleet admission: one op = reopen one job per GPU type (dropping
	// every warm cache and lease), reset the ledger to a four-type pool,
	// and run a single Rebalance pass that admits all four from scratch,
	// one cold search after another.
	coldTypes := []core.GPUType{core.A100, core.V100, core.RTX3090, core.T4}
	coldPool := cluster.NewPool()
	for _, g := range coldTypes {
		coldPool.Set(zone, g, 64)
	}
	coldSvc := sailor.NewService(sailor.ServiceConfig{Workers: 1})
	coldModel := sailor.OPT350M()
	if _, _, err := experiments.DriveFleetColdRebalance(coldSvc, coldModel, coldTypes, coldPool); err != nil { // profile the per-type Systems
		return doc, err
	}
	cExplored, cHits, err := experiments.DriveFleetColdRebalance(coldSvc, coldModel, coldTypes, coldPool)
	if err != nil {
		return doc, err
	}
	r = timed(func() error {
		_, _, err := experiments.DriveFleetColdRebalance(coldSvc, coldModel, coldTypes, coldPool)
		return err
	})
	doc.Benches = append(doc.Benches, row("fleet_rebalance_cold/jobs=4", r, cExplored, cHits))

	recovery, err := recoverRow()
	if err != nil {
		return doc, err
	}
	doc.Benches = append(doc.Benches, recovery)
	return doc, nil
}

// timed benchmarks one op, allocations reported.
func timed(op func() error) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// recoverRow times crash recovery of a fleet journal (writeFleetJournal):
// one op is persist.Open of the data dir — load the snapshot, replay the
// whole journal. BenchmarkPersistRecover is the same loop as a Go benchmark.
func recoverRow() (benchResult, error) {
	dir, err := os.MkdirTemp("", "sailor-bench-recover-")
	if err != nil {
		return benchResult{}, err
	}
	defer os.RemoveAll(dir)
	if err := writeFleetJournal(dir); err != nil {
		return benchResult{}, err
	}
	cfg := persist.Config{Fsync: persist.FsyncNone}
	_, probe, err := persist.Open(dir, cfg)
	if err != nil {
		return benchResult{}, err
	}
	res := row("persist_recover/fleet-storm", timed(func() error { _, _, err := persist.Open(dir, cfg); return err }), 0, 0)
	res.Records = probe.RecordsReplayed
	return res, nil
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
		if _, _, err := experiments.DriveFleetStorm(svc, trace.PreemptionStorm().TraceWith(s, trace.ScenarioOpts{Base: 32}), 8); err != nil {
			return err
		}
	}
	return nil
}

// warmChurnRow is the in-process replica of the end-to-end warm-churn
// workload (benchmarks/loadgen): one Service at the daemon's settings, eight
// A100 tenants each cycling the distinct pools of one scenario trace, one
// op = one Replan. Beside bytes and allocs per op it reports the heap the
// service still holds after a final GC — what the warm caches retain, the
// number the end-to-end rss_p95_mb follows. explored/cache_hits come from
// one full round before the timed loop.
func warmChurnRow() (benchResult, error) {
	const tenants, ops = churnTenants, 8000
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	heapBefore := int64(m0.HeapAlloc)

	svc := sailor.NewService(sailor.ServiceConfig{Workers: 1, MaxConcurrent: 2})
	pools := make([][]*cluster.Pool, tenants)
	prev := make([]core.Plan, tenants)
	round := 0 // ops that walk every tenant through its whole cycle
	for t := range pools {
		var err error
		if pools[t], err = churnPools(t); err != nil {
			return benchResult{}, err
		}
		round = max(round, tenants*len(pools[t]))
		if err := svc.OpenJob(fmt.Sprint("churn-", t), sailor.OPT350M(), []core.GPUType{core.A100}, 0); err != nil {
			return benchResult{}, err
		}
	}
	next := 0
	drive := func(n int) (explored, hits int, err error) {
		for end := next + n; next < end; next++ {
			t, step := next%tenants, next/tenants
			res, err := svc.Replan(context.Background(), fmt.Sprint("churn-", t), prev[t],
				pools[t][step%len(pools[t])], core.MaxThroughput, core.Constraints{})
			if err != nil {
				return 0, 0, fmt.Errorf("service_warm_churn op %d: %w", next, err)
			}
			prev[t], explored, hits = res.Plan, explored+res.Explored, hits+res.CacheHits
		}
		return explored, hits, nil
	}
	if _, _, err := drive(2 * round); err != nil { // fill the caches
		return benchResult{}, err
	}
	explored, hits, err := drive(round)
	if err != nil {
		return benchResult{}, err
	}
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if _, _, err := drive(ops); err != nil {
		return benchResult{}, err
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	res := row(fmt.Sprintf("service_warm_churn/tenants=%d", tenants), testing.BenchmarkResult{N: ops, T: elapsed,
		MemAllocs: m1.Mallocs - m0.Mallocs, MemBytes: m1.TotalAlloc - m0.TotalAlloc}, explored, hits)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(svc)
	res.LiveHeapBytes = max(int64(m1.HeapAlloc)-heapBefore, 0)
	return res, nil
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

// wireCodecRow is wire_codec/warm-churn: one op is codecRoundTrip of one
// of the warm-churn Replan pairs, taken in turn. No planner work, so its
// explored and cache_hits are zero; its allocs/op is the codec's.
func wireCodecRow() (benchResult, error) {
	pairs, err := codecPairs()
	if err != nil {
		return benchResult{}, err
	}
	r := testing.Benchmark(func(b *testing.B) { codecLoop(b, pairs) })
	return row("wire_codec/warm-churn", r, 0, 0), nil
}

// codecLoop runs codecRoundTrip b.N times over pairs, taken in turn.
func codecLoop(b *testing.B, pairs []codecPair) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := codecRoundTrip(pairs[i%len(pairs)]); err != nil {
			b.Fatal(err)
		}
	}
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

// novelRow is replan_novel/warm-churn: one op is novelChain over the
// warm-churn traces — the first visits of a pool, which a warm replan
// answers with a full search.
func novelRow(cfg model.Config, ev planner.Evaluator, workers int) (benchResult, error) {
	traces, err := novelPools()
	if err != nil {
		return benchResult{}, err
	}
	explored, hits, err := novelChain(cfg, ev, workers, traces)
	if err != nil {
		return benchResult{}, fmt.Errorf("replan_novel: %w", err)
	}
	r := timed(func() error { _, _, err := novelChain(cfg, ev, workers, traces); return err })
	return row("replan_novel/warm-churn", r, explored, hits), nil
}

func row(name string, r testing.BenchmarkResult, explored, hits int) benchResult {
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Explored:    explored,
		CacheHits:   hits,
		Iters:       r.N,
	}
}

// printBenchstat writes the document's rows as benchstat-compatible
// benchmark lines (name, iteration count, value-unit pairs). Several
// -count runs piped into benchstat yield means and confidence intervals;
// the planner telemetry rides along as custom units.
func printBenchstat(w io.Writer, doc benchDoc, header bool) {
	if header {
		fmt.Fprintf(w, "goos: %s\ngoarch: %s\npkg: repro/cmd/sailor-bench\n", runtime.GOOS, runtime.GOARCH)
	}
	for _, b := range doc.Benches {
		fmt.Fprintf(w, "Benchmark_%s \t%8d\t%14.0f ns/op\t%10d B/op\t%8d allocs/op\t%8d explored/op\t%8d cache-hits/op",
			b.Name, b.Iters, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, b.Explored, b.CacheHits)
		if b.LiveHeapBytes > 0 {
			fmt.Fprintf(w, "\t%10d live-heap-B", b.LiveHeapBytes)
		}
		if b.Records > 0 {
			fmt.Fprintf(w, "\t%8d records/op", b.Records)
		}
		fmt.Fprintln(w)
	}
}

// writeBenchJSON runs the suite count times, printing one benchstat block
// per run, and writes the document from the final run to path.
func writeBenchJSON(path string, workers, count int, log io.Writer) error {
	var doc benchDoc
	for i := 0; i < count; i++ {
		d, err := runPerfSuite(workers)
		if err != nil {
			return err
		}
		printBenchstat(log, d, i == 0)
		doc = d
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s (%d benches, workers=%d, count=%d)\n", path, len(doc.Benches), workers, count)
	return nil
}

// compareBenchJSON is the CI perf gate: for every row the baseline and the
// candidate share, allocs/op may not regress by more than maxGrowth
// (allocation counts are deterministic up to scheduling, so this is a real
// gate even on shared runners), and the planner's explored and cache_hits
// counters — search work, a pure function of the code — must be identical;
// ns/op deltas are printed but only informational. Rows present in one
// document only are reported and skipped, so adding or retiring a bench
// never trips the gate.
func compareBenchJSON(newPath, basePath string, maxGrowth float64, w io.Writer) error {
	load := func(path string) (map[string]benchResult, []string, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var doc benchDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
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

// validateBenchJSON checks a BENCH_planner.json document against the
// schema: correct version and kind, at least one bench, sane fields. CI
// runs this after regenerating the document.
func validateBenchJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc benchDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("%s: malformed document: %w", path, err)
	}
	if doc.V != benchSchemaVersion {
		return fmt.Errorf("%s: schema version %d, want %d", path, doc.V, benchSchemaVersion)
	}
	if doc.Kind != "planner-bench" {
		return fmt.Errorf("%s: kind %q, want \"planner-bench\"", path, doc.Kind)
	}
	if len(doc.Benches) == 0 {
		return fmt.Errorf("%s: no benches recorded", path)
	}
	for _, b := range doc.Benches {
		if b.Name == "" {
			return fmt.Errorf("%s: bench with empty name", path)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("%s: %s: ns_per_op %v not positive", path, b.Name, b.NsPerOp)
		}
		if b.AllocsPerOp < 0 || b.BytesPerOp < 0 || b.Explored < 0 || b.CacheHits < 0 {
			return fmt.Errorf("%s: %s: negative counter", path, b.Name)
		}
	}
	return nil
}
