package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/planner"
)

func zone(r, n string) core.Zone { return core.Zone{Region: r, Name: n} }

func samplePlan() core.Plan {
	za := zone("us-central1", "us-central1-a")
	zb := zone("us-east1", "us-east1-b")
	return core.Plan{
		MicroBatchSize: 2,
		Stages: []core.StagePlan{
			{FirstLayer: 0, NumLayers: 12, Replicas: []core.StageReplica{
				{GPU: core.A100, TP: 4, Zone: za},
				{GPU: core.V100, TP: 2, Zone: za},
			}},
			{FirstLayer: 12, NumLayers: 12, Replicas: []core.StageReplica{
				{GPU: core.A100, TP: 2, Zone: zb},
				{GPU: core.A100, TP: 2, Zone: zb},
			}},
		},
	}
}

func samplePool() *cluster.Pool {
	return cluster.NewPool().
		Set(zone("us-central1", "us-central1-a"), core.A100, 16).
		Set(zone("us-central1", "us-central1-a"), core.V100, 8).
		Set(zone("us-east1", "us-east1-b"), core.A100, 4)
}

func sampleEstimate() core.Estimate {
	return core.Estimate{
		IterTime: 1.5, ComputeCost: 0.25, EgressCost: 0.03,
		PeakMemory: 17 << 30, PeakMemoryGPU: core.A100, FitsMemory: true,
		StageTimes: []float64{0.7, 0.8}, StragglerStage: 1,
	}
}

func sampleResult() planner.Result {
	return planner.Result{
		Plan: samplePlan(), Estimate: sampleEstimate(),
		SearchTime: 1234 * time.Microsecond,
		Explored:   4217, WarmStart: true, CacheHits: 99,
	}
}

// roundTrip sends v across the wire the way an rpc body does: one
// json.Marshal, one json.Unmarshal into a fresh value of the same shape.
func roundTrip[T any](t testing.TB, v T) (T, []byte) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal %T: %v\n%s", v, err, data)
	}
	return out, data
}

func TestModelRoundTrip(t *testing.T) {
	in := model.GPTNeo27B()
	w, _ := roundTrip(t, FromModel(in))
	if out := w.Config(); out != in {
		t.Errorf("round trip changed model: %+v vs %+v", out, in)
	}
}

func TestPlanRoundTrip(t *testing.T) {
	in := samplePlan()
	w, _ := roundTrip(t, FromPlan(in))
	if out := w.Core(); !reflect.DeepEqual(out, in) {
		t.Errorf("round trip changed plan:\n%+v\nvs\n%+v", out, in)
	}
	// The zero plan round-trips too (empty replans carry it).
	w, _ = roundTrip(t, FromPlan(core.Plan{}))
	if out := w.Core(); !reflect.DeepEqual(out, core.Plan{}) {
		t.Errorf("zero plan round trip = %+v", out)
	}
}

func TestPoolRoundTrip(t *testing.T) {
	in := samplePool()
	w, data := roundTrip(t, FromPool(in))
	out := w.Cluster()
	if out.String() != in.String() {
		t.Errorf("round trip changed pool:\n%svs\n%s", out, in)
	}
	// Canonical form: re-encoding the decoded pool is byte-identical.
	_, again := roundTrip(t, FromPool(out))
	if !bytes.Equal(again, data) {
		t.Errorf("pool encoding not canonical:\n%s\nvs\n%s", again, data)
	}
}

func TestConstraintsRoundTrip(t *testing.T) {
	in := core.Constraints{MaxCostPerIter: 1.25, MinThroughput: 0.05, MaxIterTime: 30}
	w, _ := roundTrip(t, FromConstraints(in))
	if out := w.Core(); out != in {
		t.Errorf("round trip changed constraints: %+v vs %+v", out, in)
	}
}

func TestEstimateRoundTrip(t *testing.T) {
	in := sampleEstimate()
	w, _ := roundTrip(t, FromEstimate(in))
	if out := w.Core(); !reflect.DeepEqual(out, in) {
		t.Errorf("round trip changed estimate:\n%+v\nvs\n%+v", out, in)
	}
}

func TestPlanResultRoundTrip(t *testing.T) {
	in := sampleResult()
	w, _ := roundTrip(t, FromResult(in))
	if out := w.Result(); !reflect.DeepEqual(out, in) {
		t.Errorf("round trip changed result:\n%+v\nvs\n%+v", out, in)
	}
}

// TestDeterministicEncoding: structurally equal values marshal to identical
// bytes — the property the service determinism tests and the CLI golden
// files build on.
func TestDeterministicEncoding(t *testing.T) {
	_, a := roundTrip(t, FromResult(sampleResult()))
	_, b := roundTrip(t, FromResult(sampleResult()))
	if !bytes.Equal(a, b) {
		t.Errorf("equal results marshalled differently:\n%s\nvs\n%s", a, b)
	}
}

func TestUnknownVersionRejected(t *testing.T) {
	if err := Check(Version); err != nil {
		t.Errorf("Check(Version) = %v", err)
	}
	for _, v := range []int{0, Version + 1, -1} {
		if err := Check(v); err == nil || !strings.Contains(err.Error(), "unsupported schema version") {
			t.Errorf("Check(%d) must fail with a clear error, got %v", v, err)
		}
	}
}

// TestGarbageRejected: a frame body that is not a message of the method's
// shape fails to decode instead of arriving as zero values.
func TestGarbageRejected(t *testing.T) {
	var req PlanRequest
	if err := json.Unmarshal([]byte("not json"), &req); err == nil {
		t.Error("garbage must not decode")
	}
	if err := json.Unmarshal([]byte(`{"v":1,"pool":"nope"}`), &req); err == nil {
		t.Error("mistyped pool must not decode")
	}
}
