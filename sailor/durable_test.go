package sailor

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/persist"
)

// openDurable returns a service of cfg journaling into a fresh data dir,
// and a probe that counts the records a recovery of the dir replays.
func openDurable(t *testing.T, cfg ServiceConfig) (*Service, string, func() int) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "state")
	store, _, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	svc := NewService(cfg)
	if err := store.Rotate(svc.PersistState()); err != nil {
		t.Fatal(err)
	}
	svc.SetRecorder(store)
	records := func() int {
		t.Helper()
		_, rec, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		return rec.RecordsReplayed
	}
	return svc, dir, records
}

// checkRecovers asserts that recovering dir yields exactly svc's live state,
// up to nil versus empty for no jobs.
func checkRecovers(t *testing.T, svc *Service, dir string) {
	t.Helper()
	_, rec, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	got, want := rec.State, svc.PersistState()
	if len(got.Jobs) == 0 {
		got.Jobs = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state diverged from the live service:\n got %+v\n     %+v\nwant %+v\n     %+v", got, got.Fleet, want, want.Fleet)
	}
}

// TestDurableFleetRunRecovers drives a durable fleet the way the
// fleet-durable benchmark does — eight A100 jobs, preemption-storm steps
// each followed by Rebalance — plus one job moved to MinCost under a
// throughput floor by a fleet Plan and back, and one name closed and
// reopened mid-run. Recovering the data dir yields the live state, and a
// regrant that keeps the job's objective and constraints journals exactly
// one record: the lease-install.
func TestDurableFleetRunRecovers(t *testing.T) {
	const jobs = 8
	led := NewLedger(NewPool())
	led.SetJobCap(8)
	svc, dir, records := openDurable(t, ServiceConfig{Workers: 1, MaxConcurrent: 2, Fleet: led})
	for i := 0; i < jobs; i++ {
		if err := svc.OpenJob(fmt.Sprintf("fleet-%d", i), OPT350M(), []GPUType{A100}, jobs-i); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	// leased returns the lease holders in admission order.
	leased := func() []string {
		st, err := svc.FleetStats()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, le := range st.Leases {
			out = append(out, le.Job)
		}
		return out
	}
	// grant re-plans a leased job through the fleet Plan call and checks how
	// many records the grant journaled.
	grant := func(job string, obj Objective, cons Constraints, wantRecords int) PlanResult {
		t.Helper()
		before := records()
		res, err := svc.Plan(ctx, job, nil, obj, cons)
		if err != nil {
			t.Fatalf("%s plan of %s: %v", obj, job, err)
		}
		if got := records() - before; got != wantRecords {
			t.Errorf("%s plan of %s journaled %d records, want %d", obj, job, got, wantRecords)
		}
		return res
	}

	sc, ok := ScenarioByName("preemption-storm")
	if !ok {
		t.Fatal("preemption-storm not registered")
	}
	events := sc.TraceWith(1, ScenarioOpts{Base: 32}).Events
	switchAt, reopenAt := len(events)/4, len(events)/2
	switched, back := "", false // the job moved to MinCost; whether it moved back
	for i, ev := range events {
		if _, err := svc.FleetEvent(ev); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Rebalance(ctx); err != nil {
			t.Fatal(err)
		}
		leases := leased()
		if switched == "" && i >= switchAt && len(leases) > 0 {
			switched = leases[0]
			res := grant(switched, MaxThroughput, Constraints{}, 1)
			grant(switched, MinCost, Constraints{MinThroughput: res.Estimate.Throughput() / 2}, 2)
		} else if switched != "" && !back && slices.Contains(leases, switched) {
			grant(switched, MaxThroughput, Constraints{}, 2)
			back = true
		}
		if i == reopenAt {
			if err := svc.CloseJob("fleet-5"); err != nil {
				t.Fatal(err)
			}
			if err := svc.OpenJob("fleet-5", OPT350M(), []GPUType{A100}, jobs-5); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !back {
		t.Fatalf("the objective switch of %q never completed", switched)
	}
	checkRecovers(t, svc, dir)
}

// TestStaleLedgerGrantRefused: a grant committed against a ledger that
// SetFleet has replaced since its search is refused — no install, no
// journal record — and the replaced ledger journals nothing more, so the
// data dir still recovers cleanly to the live state.
func TestStaleLedgerGrantRefused(t *testing.T) {
	zone := GCPZone("us-central1", 'a')
	pool := NewPool().Set(zone, A100, 16)
	stale := NewLedger(pool)
	svc, dir, records := openDurable(t, ServiceConfig{Workers: 1, MaxConcurrent: 2, Fleet: stale})
	if err := svc.OpenJob("a", OPT350M(), []GPUType{A100}, 1); err != nil {
		t.Fatal(err)
	}
	j, err := svc.job("a")
	if err != nil {
		t.Fatal(err)
	}
	q := searchReq{led: stale, obj: MaxThroughput}
	res, err := svc.search(context.Background(), "a", j, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetFleet(pool, 0); err != nil {
		t.Fatal(err)
	}
	before := records()
	if err := svc.commitFleet("a", j, q, res); err == nil || !strings.Contains(err.Error(), "ledger replaced") {
		t.Fatalf("commit on the replaced ledger = %v, want a ledger-replaced error", err)
	}
	if stale.Held("a") {
		t.Error("the refused grant installed a lease on the replaced ledger")
	}
	// Mutations of the replaced ledger no longer describe the service.
	stale.Apply(TraceEvent{Zone: zone, GPU: A100, Delta: -4})
	if got := records(); got != before {
		t.Errorf("journal grew by %d records after the ledger was replaced, want 0", got-before)
	}
	checkRecovers(t, svc, dir)
}
