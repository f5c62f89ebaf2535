package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/sailor"
)

// TestReportRoundTrip pins every field fromReport and fromPhaseTimings
// copy, that nil slices stay nil (encoding as null) while empty ones stay
// empty, and that the -json shape survives the JSON hop intact (nothing
// converts it back).
func TestReportRoundTrip(t *testing.T) {
	pt := sailor.PhaseTimings{Planning: 1, Cleanup: 2, Broadcast: 3, GroupInit: 4,
		ModelRedef: 5, Dataloader: 6, CkptLoad: 7, RolledBackIters: 8,
		PlanCacheHits: 9, PlanExplored: 10}
	wantPT := phaseTimingsDoc{Planning: 1, Cleanup: 2, Broadcast: 3, GroupInit: 4,
		ModelRedef: 5, Dataloader: 6, CkptLoad: 7, RolledBackIters: 8,
		PlanCacheHits: 9, PlanExplored: 10}
	if got := fromPhaseTimings(pt); got != wantPT {
		t.Errorf("fromPhaseTimings = %+v, want %+v", got, wantPT)
	}

	za := sailor.Zone{Region: "us-central1", Name: "us-central1-a"}
	plan := sailor.Plan{MicroBatchSize: 2, Stages: []sailor.StagePlan{
		{FirstLayer: 0, NumLayers: 24, Replicas: []sailor.StageReplica{
			{GPU: sailor.A100, TP: 4, Zone: za}, {GPU: sailor.V100, TP: 2, Zone: za},
		}},
	}}
	r := sailor.Report{IterationsDone: 11, VirtualSeconds: 12, LostIterations: 13,
		CheckpointsTaken: 14, PlanningSeconds: 15, PlanCacheHits: 16,
		Reconfigs: []sailor.PhaseTimings{pt}, PlansUsed: []sailor.Plan{plan}}
	want := reportDoc{IterationsDone: 11, VirtualSeconds: 12, LostIterations: 13,
		CheckpointsTaken: 14, PlanningSeconds: 15, PlanCacheHits: 16,
		Reconfigs: []phaseTimingsDoc{wantPT}, PlansUsed: []wire.Plan{wire.FromPlan(plan)}}
	got := fromReport(r)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fromReport =\n%+v\nwant\n%+v", got, want)
	}

	if got := fromReport(sailor.Report{}); got.Reconfigs != nil || got.PlansUsed != nil {
		t.Errorf("nil slices became %#v / %#v", got.Reconfigs, got.PlansUsed)
	}
	empty := fromReport(sailor.Report{Reconfigs: []sailor.PhaseTimings{}, PlansUsed: []sailor.Plan{}})
	if empty.Reconfigs == nil || len(empty.Reconfigs) != 0 || empty.PlansUsed == nil || len(empty.PlansUsed) != 0 {
		t.Errorf("empty slices became %#v / %#v", empty.Reconfigs, empty.PlansUsed)
	}

	data, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var out reportDoc
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(out, got) {
		t.Errorf("round trip changed report:\n%+v\nvs\n%+v", out, got)
	}
}
