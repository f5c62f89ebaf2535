package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/trace"
)

func fleetTestPlan(z core.Zone, n, tp int) core.Plan {
	reps := make([]core.StageReplica, n)
	for i := range reps {
		reps[i] = core.StageReplica{GPU: core.A100, TP: tp, Zone: z}
	}
	return core.Plan{MicroBatchSize: 2, Stages: []core.StagePlan{
		{FirstLayer: 0, NumLayers: 24, Replicas: reps},
	}}
}

func TestFleetEventRoundTrip(t *testing.T) {
	ev := trace.Event{
		At:    90 * time.Minute,
		Zone:  cluster.GCPZone("europe-west4", 'a'),
		GPU:   core.V100,
		Delta: -3,
	}
	got := FromFleetEvent(ev).Trace()
	if got != ev {
		t.Errorf("round trip changed event: %+v vs %+v", got, ev)
	}
	// Deterministic encoding: equal events marshal byte-identically.
	a, err := json.Marshal(FromFleetEvent(ev))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(FromFleetEvent(got))
	if !bytes.Equal(a, b) {
		t.Error("equal events marshal differently")
	}
}

func TestFromLeaseAndSnapshot(t *testing.T) {
	z := cluster.GCPZone("us-central1", 'a')
	l := fleet.NewLedger(cluster.NewPool().Set(z, core.A100, 16))
	if _, err := l.Install("lo", 1, fleetTestPlan(z, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Install("hi", 5, fleetTestPlan(z, 2, 4)); err != nil {
		t.Fatal(err)
	}
	st := FromFleetSnapshot(l.Snapshot())
	if st.CapacityGPUs != 16 || st.LeasedGPUs != 12 || st.FreeGPUs != 4 {
		t.Errorf("totals = %d/%d/%d, want 16/12/4", st.CapacityGPUs, st.LeasedGPUs, st.FreeGPUs)
	}
	if st.Version != 2 {
		t.Errorf("version = %d, want 2 after two grants", st.Version)
	}
	if len(st.Leases) != 2 || st.Leases[0].Job != "hi" || st.Leases[1].Job != "lo" {
		t.Fatalf("lease table = %+v, want [hi lo] in admission order", st.Leases)
	}
	row := st.Leases[0]
	if row.GPUs != 8 || row.Priority != 5 || row.AcquiredVersion != 2 {
		t.Errorf("hi row = %+v, want 8 GPUs at priority 5, acquired v2", row)
	}
	if got := row.Plan.Core(); got.GPUCount() != 8 {
		t.Errorf("lease plan did not round-trip: %v", got)
	}
	// Free/Capacity pools carry the cell-level detail.
	if st.Free.Cluster().Available(z, core.A100) != 4 {
		t.Error("free pool lost cell detail")
	}

	// Every field, on literals: a lease row, a snapshot with a job cap, and
	// an empty snapshot, which has no lease rows.
	plan := fleetTestPlan(z, 3, 2)
	le := fleet.Lease{Job: "j", Priority: -2, Plan: plan, Acquired: 7}
	wantRow := LeaseInfo{Job: "j", Priority: -2, GPUs: 6, AcquiredVersion: 7, Plan: FromPlan(plan)}
	if got := FromLease(le); !reflect.DeepEqual(got, wantRow) {
		t.Errorf("FromLease = %+v, want %+v", got, wantRow)
	}
	capPool := cluster.NewPool().Set(z, core.A100, 16).Set(z, core.V100, 4)
	free := cluster.NewPool().Set(z, core.A100, 10).Set(z, core.V100, 4)
	got := FromFleetSnapshot(fleet.Snapshot{Version: 9, Capacity: capPool, Free: free,
		JobCap: 12, Leases: []fleet.Lease{le}})
	want := FleetStats{Version: 9, CapacityGPUs: 20, LeasedGPUs: 6, FreeGPUs: 14, JobCapGPUs: 12,
		Capacity: FromPool(capPool), Free: FromPool(free), Leases: []LeaseInfo{wantRow}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FromFleetSnapshot =\n%+v\nwant\n%+v", got, want)
	}
	empty := FromFleetSnapshot(fleet.Snapshot{Capacity: cluster.NewPool(), Free: cluster.NewPool()})
	if empty.Leases != nil || empty.LeasedGPUs != 0 || empty.Capacity.Entries != nil {
		t.Errorf("empty snapshot = %+v", empty)
	}
}
