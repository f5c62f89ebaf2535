package sailor

import (
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestServicePlanMatchesSystem: the front door adds no planner behavior —
// Service.Plan equals System.Plan (plan, estimate, telemetry) on the same
// inputs, at more than one worker count.
func TestServicePlanMatchesSystem(t *testing.T) {
	pools := replayPools(t, "preemption-storm", 1, 4)
	for _, workers := range []int{1, 4} {
		svc := NewService(ServiceConfig{Workers: workers})
		if err := svc.OpenJob("tenant", OPT350M(), []GPUType{A100}, 0); err != nil {
			t.Fatal(err)
		}
		sys, err := New(OPT350M(), []GPUType{A100}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, pool := range pools {
			got, err := svc.Plan(context.Background(), "tenant", pool, MaxThroughput, Constraints{})
			if err != nil {
				t.Fatalf("workers=%d pool %d: %v", workers, i, err)
			}
			want, err := sys.Plan(pool, MaxThroughput, Constraints{})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := canonicalResult(t, got), canonicalResult(t, want); a != b {
				t.Errorf("workers=%d pool %d: service diverged from System:\n%s\nvs\n%s",
					workers, i, a, b)
			}
		}
	}
}

// canonicalResult renders a result's wire shape with the one wall-clock
// field zeroed — the byte-identity the determinism contract promises.
func canonicalResult(t *testing.T, res PlanResult) string {
	t.Helper()
	res.SearchTime = 0
	data, err := json.Marshal(wire.FromResult(res))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestServiceReplanContinuity: per-job warm caches give each tenant the
// same replan history System.Replan gives a dedicated System — byte for
// byte on the wire codec, CacheHits included — and tenants never
// contaminate each other's caches. The second input is a long diurnal-wave
// chain replayed twice, so its second pass is served from stored results.
// No goroutine outlives the replies: the Service runs no background work,
// so there is nothing to drain before its state is final.
func TestServiceReplanContinuity(t *testing.T) {
	sc, ok := ScenarioByName("diurnal-wave")
	if !ok {
		t.Fatal("diurnal-wave scenario not registered")
	}
	diurnal := sc.TraceWith(1, ScenarioOpts{Horizon: 72 * time.Hour, Base: 16}).DistinctPools()[:60]
	for _, in := range []struct {
		name  string
		pools []*Pool
	}{
		{"preemption-storm", replayPools(t, "preemption-storm", 1, 6)},
		{"diurnal-wave-twice", slices.Concat(diurnal, diurnal)},
	} {
		t.Run(in.name, func(t *testing.T) {
			svc := NewService(ServiceConfig{Workers: 2})
			for _, job := range []string{"a", "b"} {
				if err := svc.OpenJob(job, OPT350M(), []GPUType{A100}, 0); err != nil {
					t.Fatal(err)
				}
			}
			sys, err := New(OPT350M(), []GPUType{A100}, WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			var prevSys Plan
			want := make([]string, len(in.pools))
			for i, pool := range in.pools {
				res, err := sys.Replan(prevSys, pool, MaxThroughput, Constraints{})
				if err != nil {
					t.Fatal(err)
				}
				want[i], prevSys = canonicalResult(t, res), res.Plan
			}
			// Tenant "a" replays the same history; tenant "b" interleaves
			// plans that must not perturb a's cache-hit trajectory.
			goroutines := runtime.NumGoroutine()
			var prevA Plan
			totalHits := 0
			for i, pool := range in.pools {
				if _, err := svc.Plan(context.Background(), "b", pool, MaxThroughput, Constraints{}); err != nil {
					t.Fatal(err)
				}
				res, err := svc.Replan(context.Background(), "a", prevA, pool, MaxThroughput, Constraints{})
				if err != nil {
					t.Fatal(err)
				}
				if got := canonicalResult(t, res); got != want[i] {
					t.Errorf("pool %d: service replan diverged from System (tenant isolation broken?):\n%s\nvs\n%s",
						i, got, want[i])
				}
				totalHits += res.CacheHits
				prevA = res.Plan
			}
			if totalHits == 0 {
				t.Error("service replan chain never hit the warm cache")
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%d goroutines after the last reply, %d before the first request: the service left work running",
					n, goroutines)
			}
		})
	}
}

// TestServiceSystemSharing: jobs with the same (model, GPU set, seed)
// shape share one profiled System; different shapes do not; the LRU evicts
// beyond its capacity; closed jobs free their slot in the jobs map only.
func TestServiceSystemSharing(t *testing.T) {
	svc := NewService(ServiceConfig{SystemCacheSize: 2})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(svc.OpenJob("a", OPT350M(), []GPUType{A100, V100}, 0))
	must(svc.OpenJob("b", OPT350M(), []GPUType{V100, A100}, 0)) // same set, different order
	must(svc.OpenJob("c", GPT2XL(), []GPUType{A100}, 0))
	a, _ := svc.job("a")
	b, _ := svc.job("b")
	c, _ := svc.job("c")
	if a.sys != b.sys {
		t.Error("same-shape jobs must share one profiled System")
	}
	if a.warm == b.warm {
		t.Error("jobs sharing a System must still have private warm caches")
	}
	if a.sys == c.sys {
		t.Error("different models must not share a System")
	}
	st, _ := svc.Stats()
	if st.SystemCacheHits != 1 || st.SystemCacheMisses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 1/2", st.SystemCacheHits, st.SystemCacheMisses)
	}
	// A third shape evicts the least recently used (OPT350M's system).
	must(svc.OpenJob("d", GPTNeo27B(), []GPUType{V100}, 0))
	st, _ = svc.Stats()
	if st.SystemsCached != 2 {
		t.Errorf("SystemsCached = %d, want 2 (capacity)", st.SystemsCached)
	}
	must(svc.CloseJob("a"))
	if err := svc.CloseJob("a"); err == nil {
		t.Error("double CloseJob must fail")
	}
	if _, err := svc.job("a"); err == nil || !strings.Contains(err.Error(), "not open") {
		t.Errorf("closed job lookup = %v", err)
	}
}

// TestServiceOpenJobErrors: the front door validates its inputs.
func TestServiceOpenJobErrors(t *testing.T) {
	svc := NewService(ServiceConfig{})
	if err := svc.OpenJob("", OPT350M(), []GPUType{A100}, 0); err == nil {
		t.Error("empty job name must fail")
	}
	if err := svc.OpenJob("x", OPT350M(), nil, 0); err == nil {
		t.Error("no GPU types must fail")
	}
	if err := svc.OpenJob("x", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	if err := svc.OpenJob("x", OPT350M(), []GPUType{A100}, 0); err == nil ||
		!strings.Contains(err.Error(), "already open") {
		t.Errorf("duplicate OpenJob = %v, want already-open error", err)
	}
	if err := svc.OpenJob("bad", Model{Name: "junk"}, []GPUType{A100}, 0); err == nil {
		t.Error("invalid model must fail to open")
	}
	if _, err := svc.Plan(context.Background(), "ghost", NewPool(), MaxThroughput, Constraints{}); err == nil {
		t.Error("planning an unopened job must fail")
	}
	if _, err := svc.Simulate("ghost", Plan{}); err == nil {
		t.Error("simulating an unopened job must fail")
	}
	st, _ := svc.Stats()
	if st.Errors < 2 {
		t.Errorf("Errors = %d, want >=2 (failed plan + simulate)", st.Errors)
	}
}

// TestServiceConcurrentTenants is the multi-tenant race test (run under
// -race): several tenants plan, replan, and simulate concurrently against
// one Service — two of them sharing a System — and every response matches
// the single-tenant reference.
func TestServiceConcurrentTenants(t *testing.T) {
	pools := replayPools(t, "preemption-storm", 3, 4)
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 4})
	sys, err := New(OPT350M(), []GPUType{A100}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]string, len(pools))
	for i, p := range pools {
		res, err := sys.Plan(p, MaxThroughput, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res.Plan.String()
	}

	const tenants = 4
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := []string{"t0", "t1", "t2", "t3"}[g]
			if err := svc.OpenJob(job, OPT350M(), []GPUType{A100}, 0); err != nil {
				t.Error(err)
				return
			}
			var prev Plan
			for i, pool := range pools {
				var res PlanResult
				var err error
				if g%2 == 0 {
					res, err = svc.Plan(context.Background(), job, pool, MaxThroughput, Constraints{})
				} else {
					res, err = svc.Replan(context.Background(), job, prev, pool, MaxThroughput, Constraints{})
				}
				if err != nil {
					t.Errorf("tenant %s pool %d: %v", job, i, err)
					return
				}
				if res.Plan.String() != cold[i] {
					t.Errorf("tenant %s pool %d: plan diverged from reference", job, i)
				}
				if _, err := svc.Simulate(job, res.Plan); err != nil {
					t.Errorf("tenant %s simulate: %v", job, err)
				}
				prev = res.Plan
			}
			if err := svc.CloseJob(job); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantReqs := uint64(tenants * len(pools) * 2) // plan/replan + simulate each
	if st.Requests != wantReqs {
		t.Errorf("Requests = %d, want %d", st.Requests, wantReqs)
	}
	if st.Plans+st.Replans != uint64(tenants*len(pools)) {
		t.Errorf("Plans+Replans = %d, want %d", st.Plans+st.Replans, tenants*len(pools))
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after quiescence, want 0", st.InFlight)
	}
	if st.JobsOpen != 0 {
		t.Errorf("JobsOpen = %d after closing all, want 0", st.JobsOpen)
	}
	if st.QPS <= 0 || st.UptimeSeconds <= 0 {
		t.Errorf("QPS/Uptime = %v/%v, want positive", st.QPS, st.UptimeSeconds)
	}
}

// TestServiceQueuedCancellation: a request queued behind the concurrency
// bound honors context cancellation instead of waiting forever.
func TestServiceQueuedCancellation(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 1})
	if err := svc.OpenJob("j", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	svc.sem <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Plan(ctx, "j", NewPool(), MaxThroughput, Constraints{}); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Errorf("queued+cancelled plan = %v, want cancellation error", err)
	}
	<-svc.sem
}
