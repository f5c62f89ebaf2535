package wire

import (
	"bytes"
	"encoding/json"
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
}
