package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

var (
	zoneA = cluster.GCPZone("us-central1", 'a')
	zoneB = cluster.GCPZone("us-central1", 'b')
)

// install is Install for tests that need only the error.
func install(l *Ledger, job string, priority int, plan core.Plan) error {
	_, err := l.Install(job, priority, plan)
	return err
}

// flatPlan builds a one-stage plan of n replicas of tp GPUs each in z.
func flatPlan(z core.Zone, g core.GPUType, n, tp int) core.Plan {
	reps := make([]core.StageReplica, n)
	for i := range reps {
		reps[i] = core.StageReplica{GPU: g, TP: tp, Zone: z}
	}
	return core.Plan{MicroBatchSize: 1, Stages: []core.StagePlan{
		{FirstLayer: 0, NumLayers: 24, Replicas: reps},
	}}
}

func TestLedgerAcquireReleaseFreeView(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16))
	if v := l.Version(); v != 0 {
		t.Errorf("fresh ledger version = %d, want 0", v)
	}
	if err := install(l, "a", 1, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if got := l.FreeView().TotalGPUs(); got != 8 {
		t.Errorf("free after 8-GPU lease = %d, want 8", got)
	}
	// A second grant for the same job replaces its lease; it does not add one.
	if err := install(l, "a", 1, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatalf("re-install of the same plan: %v", err)
	}
	if got := l.FreeView().TotalGPUs(); got != 8 {
		t.Errorf("free after re-install = %d, want 8", got)
	}
	// The remaining 8 GPUs admit job b but not a 12-GPU plan.
	if err := install(l, "b", 1, flatPlan(zoneA, core.A100, 3, 4)); !errors.Is(err, ErrConflict) {
		t.Errorf("oversized acquire = %v, want ErrConflict", err)
	}
	if err := install(l, "b", 1, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if got := l.FreeView().TotalGPUs(); got != 0 {
		t.Errorf("free after both leases = %d, want 0", got)
	}
	// The job's view offers it its own capacity back.
	if got := l.ViewForTypes("a", nil).TotalGPUs(); got != 8 {
		t.Errorf("ViewForTypes(a) = %d GPUs, want 8", got)
	}
	if !l.Release("a") {
		t.Error("Release(a) = false, want true")
	}
	if l.Release("a") {
		t.Error("double Release must report false")
	}
	if !l.Held("b") || l.Held("a") {
		t.Error("Held bookkeeping wrong after release")
	}
	if err := l.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerResize(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16))
	if err := install(l, "a", 7, flatPlan(zoneA, core.A100, 3, 4)); err != nil {
		t.Fatal(err)
	}
	// Growing within the fleet works because the job's own 12 GPUs count as
	// free for its resize.
	if err := install(l, "a", 7, flatPlan(zoneA, core.A100, 4, 4)); err != nil {
		t.Fatalf("grow-in-place resize: %v", err)
	}
	snap := l.Snapshot()
	if len(snap.Leases) != 1 || snap.Leases[0].GPUs() != 16 || snap.Leases[0].Priority != 7 {
		t.Errorf("lease after resize = %+v, want 16 GPUs at priority 7", snap.Leases)
	}
	if err := install(l, "a", 7, flatPlan(zoneA, core.A100, 5, 4)); !errors.Is(err, ErrConflict) {
		t.Errorf("oversized resize = %v, want ErrConflict", err)
	}
	// A failed resize leaves the old lease untouched.
	if got := l.Snapshot().Leases[0].GPUs(); got != 16 {
		t.Errorf("lease after failed resize = %d GPUs, want 16", got)
	}
}

// TestJobCap: the fair-share cap bounds views and grants, and tightening
// it evicts oversized leases like a capacity loss would.
func TestJobCap(t *testing.T) {
	l := NewLedger(nil) // nil capacity is a usable empty fleet
	if got := l.Capacity().TotalGPUs(); got != 0 {
		t.Fatalf("nil-pool ledger capacity = %d, want 0", got)
	}
	l.Apply(trace.Event{Zone: zoneA, GPU: core.A100, Delta: 16})
	if broken := l.SetJobCap(6); broken != nil {
		t.Errorf("capping an empty ledger broke leases: %+v", broken)
	}
	if got := l.JobCap(); got != 6 {
		t.Errorf("JobCap = %d, want 6", got)
	}
	// Views truncate to the cap; grants beyond it are refused outright.
	if got := l.ViewForTypes("a", nil).TotalGPUs(); got != 6 {
		t.Errorf("capped view = %d GPUs, want 6", got)
	}
	if err := install(l, "a", 1, flatPlan(zoneA, core.A100, 2, 4)); err == nil {
		t.Error("8-GPU plan above the 6-GPU cap must be refused")
	}
	if err := install(l, "a", 1, flatPlan(zoneA, core.A100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := install(l, "b", 2, flatPlan(zoneA, core.A100, 1, 6)); err != nil {
		t.Fatal(err)
	}
	// Tightening the cap evicts the now-oversized lease (b, 6 GPUs) and
	// keeps the conforming one.
	broken := l.SetJobCap(4)
	if len(broken) != 1 || broken[0].Job != "b" {
		t.Fatalf("tightened cap broke %+v, want exactly b", broken)
	}
	if !l.Held("a") {
		t.Error("conforming lease must survive a cap change")
	}
	// Removing the cap restores the full view.
	l.SetJobCap(0)
	if got := l.ViewForTypes("x", nil).TotalGPUs(); got != 12 {
		t.Errorf("uncapped view = %d GPUs, want 12 free", got)
	}
	if err := l.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerRejectsBadGrants(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 8))
	if err := install(l, "", 1, flatPlan(zoneA, core.A100, 1, 4)); err == nil {
		t.Error("empty job name must fail")
	}
	if err := install(l, "a", 1, core.Plan{}); err == nil {
		t.Error("empty plan must fail")
	}
	if _, err := l.Install("a", 1, flatPlan(zoneB, core.V100, 1, 4)); !errors.Is(err, ErrConflict) {
		t.Errorf("lease in a zone/type the fleet lacks = %v, want ErrConflict", err)
	}
}

// TestApplyEvictsInAdmissionOrder: a capacity loss preempts the
// lowest-priority (then lexicographically-last) leases first, returns them
// in admission order, and leaves the invariant intact.
func TestApplyEvictsInAdmissionOrder(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16))
	// Admission order is (priority desc, name asc): hi, a, b.
	for _, j := range []struct {
		name string
		pri  int
	}{{"b", 1}, {"hi", 9}, {"a", 1}} {
		if err := install(l, j.name, j.pri, flatPlan(zoneA, core.A100, 1, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// Losing 8 of 16 GPUs leaves room for two 4-GPU leases: hi and a keep
	// theirs, b is evicted.
	broken := l.Apply(trace.Event{At: time.Hour, Zone: zoneA, GPU: core.A100, Delta: -8})
	if len(broken) != 1 || broken[0].Job != "b" {
		t.Fatalf("broken = %+v, want exactly job b", broken)
	}
	if err := l.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Losing 6 more (16-8-6=2) breaks everything left, highest priority
	// reported first.
	broken = l.Apply(trace.Event{At: 2 * time.Hour, Zone: zoneA, GPU: core.A100, Delta: -6})
	if len(broken) != 2 || broken[0].Job != "hi" || broken[1].Job != "a" {
		t.Fatalf("broken = %+v, want [hi a] in admission order", broken)
	}
	if got := l.Snapshot(); len(got.Leases) != 0 || got.Free.TotalGPUs() != 2 {
		t.Errorf("post-blackout snapshot = %+v, want no leases, 2 free", got)
	}
	// Capacity growth never breaks a lease.
	if broken := l.Apply(trace.Event{At: 3 * time.Hour, Zone: zoneA, GPU: core.A100, Delta: 14}); len(broken) != 0 {
		t.Errorf("capacity gain broke leases: %+v", broken)
	}
	// Reclamation clamps at zero like trace replay.
	l.Apply(trace.Event{At: 4 * time.Hour, Zone: zoneA, GPU: core.A100, Delta: -100})
	if got := l.Capacity().TotalGPUs(); got != 0 {
		t.Errorf("capacity after over-reclaim = %d, want 0 (clamped)", got)
	}
}

// TestApplyKeepsHighPriorityAcrossZones: eviction is per-cell feasibility,
// not just totals — a zone loss breaks exactly the leases pinned there.
func TestApplyKeepsHighPriorityAcrossZones(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 8).Set(zoneB, core.A100, 8))
	if err := install(l, "inA", 1, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := install(l, "inB", 9, flatPlan(zoneB, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	// Zone B blacks out: only inB breaks even though it outranks inA.
	broken := l.Apply(trace.Event{At: time.Hour, Zone: zoneB, GPU: core.A100, Delta: -8})
	if len(broken) != 1 || broken[0].Job != "inB" {
		t.Fatalf("broken = %+v, want exactly inB", broken)
	}
	if !l.Held("inA") {
		t.Error("zone-A lease must survive a zone-B outage")
	}
}

// TestLedgerDeterminism: two ledgers fed the same operation sequence agree
// exactly — version, snapshots, and eviction lists.
func TestLedgerDeterminism(t *testing.T) {
	run := func() (Snapshot, [][]Lease) {
		l := NewLedger(cluster.NewPool())
		var evictions [][]Lease
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 200; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				z := []core.Zone{zoneA, zoneB}[rng.Intn(2)]
				delta := rng.Intn(9) - 3
				evictions = append(evictions,
					l.Apply(trace.Event{At: time.Duration(step) * time.Minute, Zone: z, GPU: core.A100, Delta: delta}))
			case 2:
				job := fmt.Sprintf("j%d", rng.Intn(6))
				z := []core.Zone{zoneA, zoneB}[rng.Intn(2)]
				plan := flatPlan(z, core.A100, 1+rng.Intn(2), 1+rng.Intn(3))
				_, _ = l.Install(job, rng.Intn(3), plan)
			case 3:
				l.Release(fmt.Sprintf("j%d", rng.Intn(6)))
			}
			if err := l.CheckInvariant(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		return l.Snapshot(), evictions
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1.Version != s2.Version || s1.Capacity.String() != s2.Capacity.String() ||
		s1.Free.String() != s2.Free.String() || fmt.Sprintf("%+v", s1.Leases) != fmt.Sprintf("%+v", s2.Leases) {
		t.Errorf("replayed ledgers diverged:\n%+v\nvs\n%+v", s1, s2)
	}
	if fmt.Sprintf("%+v", e1) != fmt.Sprintf("%+v", e2) {
		t.Error("replayed eviction sequences diverged")
	}
}

// TestLedgerPropertyRandom is the dedicated ledger property test of the
// safety invariant: under a long random mix of grants, releases, resizes,
// availability events, and cap mutations (demand autoscaling), the sum of
// leased capacity never exceeds fleet capacity at any step, every eviction
// list is sorted in admission order, no lease exceeds the cap in force,
// and the free view plus leases always re-adds to capacity.
func TestLedgerPropertyRandom(t *testing.T) {
	checkEvictionOrder := func(t *testing.T, seed int64, step int, broken []Lease) {
		t.Helper()
		for i := 1; i < len(broken); i++ {
			a, b := broken[i-1], broken[i]
			if a.Priority < b.Priority || (a.Priority == b.Priority && a.Job >= b.Job) {
				t.Fatalf("seed %d step %d: eviction order broken: %+v", seed, step, broken)
			}
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, rng.Intn(20)))
		capInForce := 0 // 0 = unlimited, mirroring SetJobCap semantics
		for step := 0; step < 500; step++ {
			job := fmt.Sprintf("j%d", rng.Intn(8))
			z := []core.Zone{zoneA, zoneB}[rng.Intn(2)]
			switch rng.Intn(6) {
			case 0, 1:
				broken := l.Apply(trace.Event{At: time.Duration(step) * time.Second,
					Zone: z, GPU: core.A100, Delta: rng.Intn(13) - 6})
				checkEvictionOrder(t, seed, step, broken)
			case 2:
				_, _ = l.Install(job, rng.Intn(4), flatPlan(z, core.A100, 1+rng.Intn(3), 1+rng.Intn(4)))
			case 3:
				if l.Held(job) {
					_ = install(l, job, rng.Intn(4), flatPlan(z, core.A100, 1+rng.Intn(2), 1+rng.Intn(4)))
				}
			case 4:
				l.Release(job)
			case 5:
				capInForce = rng.Intn(9) // 0 = back to unlimited
				evicted := l.SetJobCap(capInForce)
				checkEvictionOrder(t, seed, step, evicted)
				if capInForce > 0 {
					for _, le := range evicted {
						if le.GPUs() <= capInForce {
							t.Fatalf("seed %d step %d: cap %d evicted a fitting lease %+v",
								seed, step, capInForce, le)
						}
					}
				}
			}
			if err := l.CheckInvariant(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			snap := l.Snapshot()
			leased := 0
			for _, le := range snap.Leases {
				leased += le.GPUs()
				if capInForce > 0 && le.GPUs() > capInForce {
					t.Fatalf("seed %d step %d: lease %s holds %d GPUs over cap %d",
						seed, step, le.Job, le.GPUs(), capInForce)
				}
			}
			if leased+snap.Free.TotalGPUs() != snap.Capacity.TotalGPUs() {
				t.Fatalf("seed %d step %d: leased %d + free %d != capacity %d",
					seed, step, leased, snap.Free.TotalGPUs(), snap.Capacity.TotalGPUs())
			}
		}
	}
}

// TestLedgerConcurrentSafety hammers one ledger from many goroutines (run
// under -race) and checks the invariant still holds at the end.
func TestLedgerConcurrentSafety(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 32))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			job := fmt.Sprintf("job-%d", g)
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					_, _ = l.Install(job, g, flatPlan(zoneA, core.A100, 1, 1+g%4))
				case 1:
					_ = l.Apply(trace.Event{Zone: zoneA, GPU: core.A100, Delta: []int{-2, 2}[(i/4)%2]})
				case 2:
					_ = l.FreeView().TotalGPUs() + l.ViewForTypes(job, nil).TotalGPUs()
				case 3:
					l.Release(job)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if l.Version() == 0 {
		t.Error("version never advanced")
	}
}

// TestViewForTypes pins the type-filtered view: the free view restricted
// to a job's plannable GPU types, with the per-job cap applied after the
// filter so the cap budget is spent on usable cells only.
func TestViewForTypes(t *testing.T) {
	l := NewLedger(cluster.NewPool().
		Set(zoneA, core.A100, 8).
		Set(zoneA, core.V100, 6).
		Set(zoneB, core.A100, 4))
	if _, err := l.Install("tenant", 1, flatPlan(zoneA, core.A100, 1, 2)); err != nil {
		t.Fatal(err)
	}

	// No filter: the full free view minus the other tenant's lease.
	all := l.ViewForTypes("other", nil)
	if got := all.Available(zoneA, core.A100); got != 6 {
		t.Errorf("unfiltered A100 in zoneA = %d, want 6", got)
	}
	if got := all.Available(zoneA, core.V100); got != 6 {
		t.Errorf("unfiltered V100 in zoneA = %d, want 6", got)
	}

	// Filtered to V100: A100 cells disappear entirely.
	v := l.ViewForTypes("other", []core.GPUType{core.V100})
	if got := v.Available(zoneA, core.V100); got != 6 {
		t.Errorf("filtered V100 in zoneA = %d, want 6", got)
	}
	if got := v.Available(zoneA, core.A100); got != 0 {
		t.Errorf("filtered view leaks %d A100s", got)
	}

	// The job's own lease counts as free for its own view.
	own := l.ViewForTypes("tenant", []core.GPUType{core.A100})
	if got := own.Available(zoneA, core.A100); got != 8 {
		t.Errorf("own view A100 in zoneA = %d, want 8", got)
	}

	// Cap applies after the filter: a 3-GPU cap on a V100-only view caps
	// the usable cells, not the (filtered-away) A100 capacity.
	l.SetJobCap(3)
	capped := l.ViewForTypes("other", []core.GPUType{core.V100})
	if got := capped.TotalGPUs(); got != 3 {
		t.Errorf("capped filtered view = %d GPUs, want 3", got)
	}
}

// TestCheckInvariantViolation: a lease mutated behind the ledger's back is
// named by CheckInvariant (the replay harnesses' per-step assertion).
func TestCheckInvariantViolation(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 4))
	if _, err := l.Install("greedy", 1, flatPlan(zoneA, core.A100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	// Shrink capacity below the lease without going through Apply's
	// eviction path: the invariant re-derivation must catch it.
	l.capacity = cluster.NewPool().Set(zoneA, core.A100, 2)
	err := l.CheckInvariant()
	if err == nil || !strings.Contains(err.Error(), "greedy") {
		t.Fatalf("CheckInvariant = %v, want violation naming the lease", err)
	}
}
