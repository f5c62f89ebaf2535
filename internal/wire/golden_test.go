package wire

// Plan round trip over real plans: every plan the repository's JSON goldens
// hold (sailor-plan -json, the sailor-replay reports and fleet replays, the
// crash-recovery sequence) is wire-encoded, so each must pass Check, expand
// with Core, and come back from FromPlan as the same document — and
// Core(FromPlan(p)) must equal p.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// goldenPlans returns every JSON object in doc shaped like a Plan (one with
// "stages" and "micro_batch_size" keys).
func goldenPlans(t *testing.T, doc []byte) []map[string]any {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	var plans []map[string]any
	var walk func(any)
	walk = func(x any) {
		switch x := x.(type) {
		case map[string]any:
			_, stages := x["stages"]
			_, mbs := x["micro_batch_size"]
			if stages && mbs {
				plans = append(plans, x)
				return
			}
			for _, e := range x {
				walk(e)
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	walk(v)
	return plans
}

func TestGoldenPlansRoundTrip(t *testing.T) {
	var files []string
	for _, pattern := range []string{"../../cmd/*/testdata/*.golden.json", "../../sailor/testdata/*.golden.json"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 9 {
		t.Fatalf("found %d JSON goldens, want at least 9: %v", len(files), files)
	}
	total := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		plans := goldenPlans(t, raw)
		if len(plans) == 0 {
			t.Errorf("%s holds no plan", f)
		}
		for i, obj := range plans {
			data, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			var wp Plan
			if err := json.Unmarshal(data, &wp); err != nil {
				t.Fatalf("%s plan %d: %v", f, i, err)
			}
			if err := wp.Check(); err != nil {
				t.Errorf("%s plan %d: %v", f, i, err)
				continue
			}
			p := wp.Core()
			if back := FromPlan(p).Core(); !reflect.DeepEqual(back, p) {
				t.Errorf("%s plan %d: Core(FromPlan(p)) = %+v, want %+v", f, i, back, p)
			}
			// The golden holds the canonical encoding: re-encoding the
			// expanded plan reproduces it.
			again, err := json.Marshal(FromPlan(p))
			if err != nil {
				t.Fatal(err)
			}
			var obj2 any
			if err := json.Unmarshal(again, &obj2); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(obj2, any(obj)) {
				t.Errorf("%s plan %d re-encodes as\n%s\nnot\n%s", f, i, again, data)
			}
			total++
		}
	}
	t.Logf("%d plans in %d goldens", total, len(files))
}

// TestPlanRunsKeepOrder: runs merge only consecutive equal replicas, so an
// interleaved stage keeps its order, and nil and empty replica lists stay
// apart through the wire.
func TestPlanRunsKeepOrder(t *testing.T) {
	za, zb := zone("us-central1", "us-central1-a"), zone("us-central1", "us-central1-b")
	a := core.StageReplica{GPU: core.A100, TP: 2, Zone: za}
	b := core.StageReplica{GPU: core.A100, TP: 2, Zone: zb}
	plan := core.Plan{MicroBatchSize: 1, Stages: []core.StagePlan{
		{FirstLayer: 0, NumLayers: 4, Replicas: []core.StageReplica{a, a, b, a}},
		{FirstLayer: 4, NumLayers: 4, Replicas: nil},
		{FirstLayer: 8, NumLayers: 4, Replicas: []core.StageReplica{}},
	}}
	w := FromPlan(plan)
	want := []ReplicaRun{
		{GPU: string(core.A100), TP: 2, Zone: FromZone(za), N: 2},
		{GPU: string(core.A100), TP: 2, Zone: FromZone(zb), N: 1},
		{GPU: string(core.A100), TP: 2, Zone: FromZone(za), N: 1},
	}
	if !reflect.DeepEqual(w.Stages[0].Replicas, want) {
		t.Errorf("runs = %+v, want %+v", w.Stages[0].Replicas, want)
	}
	back, data := roundTrip(t, w)
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	got := back.Core()
	if !reflect.DeepEqual(got, plan) {
		t.Errorf("round trip changed plan:\n%+v\nvs\n%+v\n%s", got, plan, data)
	}
	if got.Stages[1].Replicas != nil || got.Stages[2].Replicas == nil {
		t.Errorf("nil/empty replicas became %#v / %#v", got.Stages[1].Replicas, got.Stages[2].Replicas)
	}
	for _, p := range []core.Plan{{}, {Stages: []core.StagePlan{}}} {
		w, _ := roundTrip(t, FromPlan(p))
		if got := w.Core(); !reflect.DeepEqual(got, p) {
			t.Errorf("plan %#v round-tripped to %#v", p, got)
		}
	}
}

// TestPlanCheck: a run must hold a replica, and a plan at most MaxReplicas
// across all its stages.
func TestPlanCheck(t *testing.T) {
	run := func(n int) ReplicaRun { return ReplicaRun{GPU: string(core.A100), TP: 1, N: n} }
	stage := func(runs ...ReplicaRun) Stage { return Stage{NumLayers: 1, Replicas: runs} }
	for _, tc := range []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"at the bound", Plan{Stages: []Stage{stage(run(MaxReplicas - 1)), stage(run(1))}}, true},
		{"zero run", Plan{Stages: []Stage{stage(run(1), run(0))}}, false},
		{"negative run", Plan{Stages: []Stage{stage(run(-3))}}, false},
		{"one run over", Plan{Stages: []Stage{stage(run(MaxReplicas + 1))}}, false},
		{"stages sum over", Plan{Stages: []Stage{stage(run(MaxReplicas)), stage(run(1))}}, false},
		{"huge runs", Plan{Stages: []Stage{stage(run(1<<62), run(1<<62))}}, false},
	} {
		if err := tc.plan.Check(); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}
