package sailor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFleetSoloParity is the no-contention determinism acceptance test: a
// fleet of one uncapped job produces bit-identical plans, estimates, and
// telemetry (wire-encoded) to today's solo Service.Plan/Replan on the same
// pool history.
func TestFleetSoloParity(t *testing.T) {
	pools := replayPools(t, "preemption-storm", 1, 5)
	solo := NewService(ServiceConfig{Workers: 2})
	fl := NewService(ServiceConfig{Workers: 2, Fleet: NewLedger(pools[0])})
	if err := solo.OpenJob("job", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	if err := fl.OpenJob("job", OPT350M(), []GPUType{A100}, 3); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var prev Plan
	for i, pool := range pools {
		if i > 0 {
			if err := fl.SetFleet(pool, 0); err != nil {
				t.Fatal(err)
			}
		}
		var got, want PlanResult
		var errGot, errWant error
		if i == 0 {
			// The fleet-mode request pool is ignored: the ledger is
			// authoritative, so nil stands in for "whatever the caller sent".
			got, errGot = fl.Plan(ctx, "job", nil, MaxThroughput, Constraints{})
			want, errWant = solo.Plan(ctx, "job", pool, MaxThroughput, Constraints{})
		} else {
			got, errGot = fl.Replan(ctx, "job", prev, nil, MaxThroughput, Constraints{})
			want, errWant = solo.Replan(ctx, "job", prev, pool, MaxThroughput, Constraints{})
		}
		if errGot != nil || errWant != nil {
			t.Fatalf("pool %d: fleet err %v, solo err %v", i, errGot, errWant)
		}
		if a, b := canonicalResult(t, got), canonicalResult(t, want); a != b {
			t.Errorf("pool %d: fleet diverged from solo service:\n%s\nvs\n%s", i, a, b)
		}
		st, err := fl.FleetStats()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Leases) != 1 || st.Leases[0].GPUs != got.Plan.GPUCount() {
			t.Errorf("pool %d: lease table %+v does not match plan (%d GPUs)",
				i, st.Leases, got.Plan.GPUCount())
		}
		prev = want.Plan
	}
}

// TestFleetAdmissionAndPreemption: two capped jobs share one fleet; a
// capacity loss preempts the low-priority job; Rebalance re-admits it warm
// once capacity returns, in priority order.
func TestFleetAdmissionAndPreemption(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	led := NewLedger(NewPool().Set(zone, A100, 16))
	led.SetJobCap(8)
	svc := NewService(ServiceConfig{Workers: 1, Fleet: led})
	for _, j := range []struct {
		name string
		pri  int
	}{{"lo", 1}, {"hi", 2}} {
		if err := svc.OpenJob(j.name, OPT350M(), []GPUType{A100}, j.pri); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// Rebalance admits both (hi first), each capped at 8 GPUs.
	steps, err := svc.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 || steps[0].Job != "hi" || steps[1].Job != "lo" {
		t.Fatalf("admission steps = %+v, want [hi lo]", steps)
	}
	for _, s := range steps {
		if s.Action != "admit" || s.Result == nil || s.Result.Plan.Core().GPUCount() > 8 {
			t.Errorf("step %+v: want admit with a <=8-GPU plan", s)
		}
	}
	// Losing half the fleet breaks the low-priority lease only.
	broken, err := svc.FleetEvent(TraceEvent{At: time.Hour, Zone: zone, GPU: A100, Delta: -8})
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || broken[0].Job != "lo" {
		t.Fatalf("broken = %+v, want exactly lo", broken)
	}
	// No free capacity: lo waits.
	steps, err = svc.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0].Job != "lo" || steps[0].Action != "wait" {
		t.Fatalf("post-loss steps = %+v, want lo waiting", steps)
	}
	// Capacity returns: lo replans warm from its previous plan.
	if _, err := svc.FleetEvent(TraceEvent{At: 2 * time.Hour, Zone: zone, GPU: A100, Delta: 8}); err != nil {
		t.Fatal(err)
	}
	steps, err = svc.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0].Action != "replan" || steps[0].Result == nil {
		t.Fatalf("recovery steps = %+v, want lo replanned", steps)
	}
	st, err := svc.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Leases) != 2 || st.LeasedGPUs > st.CapacityGPUs {
		t.Errorf("final stats %+v: want both leased within capacity", st)
	}
	if err := led.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetCloseJobReleasesLease: closing a fleet job frees its capacity.
func TestFleetCloseJobReleasesLease(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	led := NewLedger(NewPool().Set(zone, A100, 8))
	svc := NewService(ServiceConfig{Workers: 1, Fleet: led})
	if err := svc.OpenJob("a", OPT350M(), []GPUType{A100}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Plan(context.Background(), "a", nil, MaxThroughput, Constraints{}); err != nil {
		t.Fatal(err)
	}
	st, _ := svc.FleetStats()
	if len(st.Leases) != 1 || st.FreeGPUs == st.CapacityGPUs {
		t.Fatalf("stats before close = %+v, want one lease holding capacity", st)
	}
	if err := svc.CloseJob("a"); err != nil {
		t.Fatal(err)
	}
	st, _ = svc.FleetStats()
	if len(st.Leases) != 0 || st.FreeGPUs != st.CapacityGPUs {
		t.Errorf("stats after close = %+v, want lease released and capacity free", st)
	}
}

// TestFleetModeErrors: fleet calls without a ledger return ErrNoFleet, and
// SetFleet flips the service into fleet mode.
func TestFleetModeErrors(t *testing.T) {
	svc := NewService(ServiceConfig{})
	if _, err := svc.FleetStats(); !errors.Is(err, ErrNoFleet) {
		t.Errorf("FleetStats = %v, want ErrNoFleet", err)
	}
	if _, err := svc.FleetEvent(TraceEvent{}); !errors.Is(err, ErrNoFleet) {
		t.Errorf("FleetEvent = %v, want ErrNoFleet", err)
	}
	if _, err := svc.Rebalance(context.Background()); !errors.Is(err, ErrNoFleet) {
		t.Errorf("Rebalance = %v, want ErrNoFleet", err)
	}
	zone := GCPZone("us-central1", 'a')
	if err := svc.SetFleet(NewPool().Set(zone, A100, 4), 2); err != nil {
		t.Fatal(err)
	}
	st, err := svc.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CapacityGPUs != 4 || st.JobCapGPUs != 2 {
		t.Errorf("stats after SetFleet = %+v, want 4 GPUs capped at 2/job", st)
	}
}

// TestServiceJobLifecycleRaces hammers one job name with concurrent
// OpenJob/CloseJob/Plan (run under -race): every call either succeeds or
// fails with a lifecycle error, nothing panics, in fleet mode the final
// CloseJob sweep leaves zero leases behind, and a durable fleet's data dir
// recovers to the live state.
func TestServiceJobLifecycleRaces(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	for _, name := range []string{"plain", "fleet", "durable"} {
		fleetMode := name != "plain"
		t.Run(name, func(t *testing.T) {
			cfg := ServiceConfig{Workers: 1, MaxConcurrent: 2}
			var led *Ledger
			if fleetMode {
				led = NewLedger(NewPool().Set(zone, A100, 8))
				cfg.Fleet = led
			}
			svc, dir := NewService(cfg), ""
			if name == "durable" {
				svc, dir, _ = openDurable(t, cfg) // the same config, journaled
			}
			pool := NewPool().Set(zone, A100, 8)
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 12; i++ {
						switch g % 3 {
						case 0:
							err := svc.OpenJob("life", OPT350M(), []GPUType{A100}, g)
							if err != nil && !strings.Contains(err.Error(), "already open") {
								t.Errorf("OpenJob: %v", err)
							}
						case 1:
							err := svc.CloseJob("life")
							if err != nil && !strings.Contains(err.Error(), "not open") {
								t.Errorf("CloseJob: %v", err)
							}
						case 2:
							_, err := svc.Plan(context.Background(), "life", pool, MaxThroughput, Constraints{})
							if err != nil && !strings.Contains(err.Error(), "not open") &&
								!errors.Is(err, ErrLeaseConflict) &&
								!strings.Contains(err.Error(), "no free capacity") &&
								!strings.Contains(err.Error(), "closed while planning") {
								t.Errorf("Plan: %v", err)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			// Sweep: close the job if a racer left it open; fleet mode must
			// end with zero leases either way.
			if err := svc.CloseJob("life"); err != nil && !strings.Contains(err.Error(), "not open") {
				t.Fatal(err)
			}
			if fleetMode {
				st, err := svc.FleetStats()
				if err != nil {
					t.Fatal(err)
				}
				if len(st.Leases) != 0 || st.FreeGPUs != st.CapacityGPUs {
					t.Errorf("leases leaked past CloseJob: %+v", st)
				}
				if err := led.CheckInvariant(); err != nil {
					t.Fatal(err)
				}
			}
			if dir != "" {
				checkRecovers(t, svc, dir)
			}
			st, err := svc.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.InFlight != 0 {
				t.Errorf("InFlight = %d after quiescence", st.InFlight)
			}
		})
	}
}

// canonicalSteps renders a Rebalance step list with the one wall-clock
// field (each result's search time) zeroed, so step streams from different
// configurations compare byte-for-byte.
func canonicalSteps(t *testing.T, steps []RebalanceStep) string {
	t.Helper()
	out := make([]RebalanceStep, len(steps))
	for i, s := range steps {
		if s.Result != nil {
			r := *s.Result
			r.SearchTimeNS = 0
			s.Result = &r
		}
		out[i] = s
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// canonicalFleet renders a service's full fleet snapshot — including the
// ledger version and every lease's acquired version, i.e. the ledger's
// whole mutation trajectory — for byte comparison.
func canonicalFleet(t *testing.T, svc *Service) string {
	t.Helper()
	st, err := svc.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRebalancePartitionedDeterminism drives three jobs on three disjoint
// GPU types through admission, a preemption that empties one type and
// shrinks another, and recovery. After every Rebalance pass the step stream
// and the full fleet snapshot — including the ledger version trajectory —
// must byte-equal a reference run's at workers=1 and at workers=8: the
// ordered pass is a function of the ledger state and the candidate order
// alone, whatever the search parallelism.
func TestRebalancePartitionedDeterminism(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	types := []GPUType{A100, V100, RTX3090}
	run := func(t *testing.T, workers int) []string {
		t.Helper()
		led := NewLedger(NewPool().
			Set(zone, A100, 16).Set(zone, V100, 16).Set(zone, RTX3090, 16))
		svc := NewService(ServiceConfig{Workers: workers, MaxConcurrent: 4, Fleet: led})
		for i, g := range types {
			if err := svc.OpenJob(fmt.Sprintf("job-%d", i), OPT350M(),
				[]GPUType{g}, len(types)-i); err != nil {
				t.Fatal(err)
			}
		}
		var out []string
		pass := func(phase string, ev ...TraceEvent) {
			t.Helper()
			for _, e := range ev {
				if _, err := svc.FleetEvent(e); err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
			}
			steps, err := svc.Rebalance(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", phase, err)
			}
			out = append(out, phase+" steps: "+canonicalSteps(t, steps),
				phase+" fleet: "+canonicalFleet(t, svc))
		}
		pass("admit")
		// The emptied job's search fails and it waits; the shrunk job replans.
		pass("shrink",
			TraceEvent{At: time.Hour, Zone: zone, GPU: V100, Delta: -16},
			TraceEvent{At: time.Hour, Zone: zone, GPU: RTX3090, Delta: -8})
		// Recovery: the waiting jobs replan warm.
		pass("recover",
			TraceEvent{At: 2 * time.Hour, Zone: zone, GPU: V100, Delta: 16},
			TraceEvent{At: 2 * time.Hour, Zone: zone, GPU: RTX3090, Delta: 8})
		return out
	}
	ref := run(t, 1)
	if !strings.Contains(ref[2], `"action":"wait"`) {
		t.Fatalf("the shrink left no job waiting: %s", ref[2])
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for i, got := range run(t, workers) {
				if got != ref[i] {
					t.Errorf("diverged from the workers=1 reference:\n%s\nvs\n%s", got, ref[i])
				}
			}
		})
	}
}

// TestFleetConcurrentTenantsShareLedger: several tenants plan concurrently
// against one capped ledger; afterwards the ledger is feasible, every
// tenant holds at most cap GPUs, and leased+free re-adds to capacity.
func TestFleetConcurrentTenantsShareLedger(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	led := NewLedger(NewPool().Set(zone, A100, 16))
	led.SetJobCap(4)
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 4, Fleet: led})
	const tenants = 4
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := fmt.Sprintf("t%d", g)
			if err := svc.OpenJob(job, OPT350M(), []GPUType{A100}, g); err != nil {
				t.Error(err)
				return
			}
			if _, err := svc.Plan(context.Background(), job, nil, MaxThroughput, Constraints{}); err != nil {
				t.Errorf("tenant %s: %v", job, err)
			}
		}(g)
	}
	wg.Wait()
	st, err := svc.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Leases) != tenants {
		t.Fatalf("leases = %+v, want %d", st.Leases, tenants)
	}
	for _, le := range st.Leases {
		if le.GPUs > 4 {
			t.Errorf("lease %s exceeds cap: %d GPUs", le.Job, le.GPUs)
		}
	}
	if st.LeasedGPUs+st.FreeGPUs != st.CapacityGPUs {
		t.Errorf("leased %d + free %d != capacity %d", st.LeasedGPUs, st.FreeGPUs, st.CapacityGPUs)
	}
	if err := led.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceDoesNotShedItself: a Rebalance pass takes one planner slot
// per candidate, in turn, so with one slot and a one-deep wait queue all
// four jobs still admit and nothing counts as shed.
func TestRebalanceDoesNotShedItself(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	types := []GPUType{A100, V100, RTX3090, T4}
	pool := NewPool()
	for _, g := range types {
		pool.Set(zone, g, 16)
	}
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 1, MaxQueued: 1, Fleet: NewLedger(pool)})
	for i, g := range types {
		if err := svc.OpenJob(fmt.Sprintf("job-%d", i), OPT350M(), []GPUType{g}, len(types)-i); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := svc.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(types) {
		t.Fatalf("steps = %+v, want one per job", steps)
	}
	for _, s := range steps {
		if s.Action != "admit" {
			t.Errorf("job %s: action %q (%s), want admit", s.Job, s.Action, s.Error)
		}
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Overloaded != 0 {
		t.Errorf("Overloaded = %d, want 0: Rebalance shed its own candidates", st.Overloaded)
	}
}

// TestFleetModeNeverSpeculates drives the preemption-storm trace through a
// three-job fleet and asserts the speculation layer stays out of it: no
// rebalance step is marked SpeculativeHit and, once Quiesce has drained
// whatever prefetch a fleet event or replan might have launched, every
// spec_* counter still reads zero — nothing was consulted or precomputed,
// so Quiesce had nothing to wait for.
func TestFleetModeNeverSpeculates(t *testing.T) {
	sc, ok := ScenarioByName("preemption-storm")
	if !ok {
		t.Fatal("preemption-storm not registered")
	}
	led := NewLedger(NewPool())
	led.SetJobCap(sc.Defaults.Base / 2)
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 4, Fleet: led})
	for i := 0; i < 3; i++ {
		if err := svc.OpenJob(fmt.Sprintf("job-%d", i), OPT350M(), sc.GPUs, 3-i); err != nil {
			t.Fatal(err)
		}
	}
	replans := 0
	for i, ev := range sc.TraceWith(1, ScenarioOpts{}).Events {
		if _, err := svc.FleetEvent(ev); err != nil {
			t.Fatal(err)
		}
		steps, err := svc.Rebalance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range steps {
			if s.Action == "replan" {
				replans++
			}
			if s.Result != nil && s.Result.SpeculativeHit {
				t.Errorf("event %d: job %s answered from the speculation cache in fleet mode", i, s.Job)
			}
		}
	}
	if replans == 0 {
		t.Fatal("the storm broke no lease: nothing a prefetch could have targeted")
	}
	svc.Quiesce()
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SpecHits != 0 || st.SpecMisses != 0 || st.SpecPrecomputed != 0 {
		t.Errorf("fleet mode speculated: hits=%d misses=%d precomputed=%d",
			st.SpecHits, st.SpecMisses, st.SpecPrecomputed)
	}
}
