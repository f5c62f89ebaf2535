package sailor

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/planner"
)

// TestWarmCachesOwnTheirMemory is the retention oracle of the warm cache's
// ownership rule (internal/planner/warm.go): after a long multi-tenant churn
// the jobs' WarmCaches alone — service and searches dropped — keep only
// their stored results alive, not the scratch the results were computed
// in. The workload is the in-process replica of the end-to-end warm-churn
// benchmark: eight A100 tenants cycling four scenario traces at three bases
// through Replan. The caches' 67 stored results read 0.3 MB; with the
// search scratch pinned this read well over 300 MB.
func TestWarmCachesOwnTheirMemory(t *testing.T) {
	const tenants, ops, ceilingMB = 8, 2000, 4
	scenarios := []string{"preemption-storm", "diurnal-wave", "zone-outage", "geo-shift"}
	bases := []int{16, 24, 32}
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 2})
	pools := make([][]*Pool, tenants)
	prev := make([]Plan, tenants)
	for i := range pools {
		sc, ok := ScenarioByName(scenarios[i%len(scenarios)])
		if !ok {
			t.Fatalf("%s scenario not registered", scenarios[i%len(scenarios)])
		}
		pools[i] = sc.TraceWith(int64(i), ScenarioOpts{Base: bases[i%len(bases)]}).DistinctPools()
		if err := svc.OpenJob(fmt.Sprintf("churn-%d", i), OPT350M(), []GPUType{A100}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < ops; op++ {
		i, step := op%tenants, op/tenants
		res, err := svc.Replan(context.Background(), fmt.Sprintf("churn-%d", i), prev[i],
			pools[i][step%len(pools[i])], MaxThroughput, Constraints{})
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		prev[i] = res.Plan
	}
	caches := make([]*planner.WarmCache, 0, tenants)
	results := 0
	for i := 0; i < tenants; i++ {
		j, err := svc.job(fmt.Sprintf("churn-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		caches = append(caches, j.warm)
		results += j.warm.Entries()
	}
	if results == 0 {
		t.Fatal("the churn persisted nothing")
	}
	svc, pools, prev = nil, nil, nil
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.Logf("%d stored results in %d caches, heap %.1f MB after GC", results, len(caches), float64(m.HeapAlloc)/(1<<20))
	if m.HeapAlloc > ceilingMB<<20 {
		t.Errorf("heap after GC with only the warm caches alive: %.1f MB, ceiling %d MB",
			float64(m.HeapAlloc)/(1<<20), ceilingMB)
	}
	runtime.KeepAlive(caches)
}
