package wire

// FuzzWireRoundTrip sends structured values synthesized from the fuzzer's
// primitive inputs across the wire as an rpc body does: the JSON of FromX(x)
// must decode back to x for plans, constraints, and (canonically) pools, and
// Check must reject any other schema version with the unsupported-version
// error. The seed corpus covers the shapes the planner actually emits —
// single-stage and heterogeneous multi-replica — and the fuzzer
// mutates dimensions, counts, and names from there. Each stage's replicas
// pair up by zone, so plans cross as runs of two and of one.
//
// FuzzPlanDecode feeds arbitrary bytes to wire's plan decoder: nothing
// panics, and every plan Check accepts expands to at most MaxReplicas
// replicas and re-encodes canonically.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

func FuzzWireRoundTrip(f *testing.F) {
	f.Add(1, 1, 1, 1, "A100-40", "us-central1", 16, 0.0, 0.0, 0.0, Version)
	f.Add(2, 4, 2, 12, "V100-16", "eu-west4", 8, 1.5, 0.05, 30.0, Version)
	f.Add(4, 2, 8, 6, "H100-80", "onprem", 64, 0.0, 0.25, 0.0, Version+1)
	f.Add(3, 1, 3, 5, "", "r", 1, -1.0, -2.0, -3.0, -7)

	f.Fuzz(func(t *testing.T, pp, dp, tp, layersPerStage int, gpu, region string,
		count int, budget, minTput, maxIter float64, version int) {
		// JSON cannot carry invalid UTF-8 losslessly (the encoder substitutes
		// U+FFFD), so the round-trip contract holds for valid-UTF-8 names.
		gpu = strings.ToValidUTF8(gpu, "�")
		region = strings.ToValidUTF8(region, "�")
		plan := fuzzPlan(pp, dp, tp, layersPerStage, gpu, region)
		wp, data := roundTrip(t, FromPlan(plan))
		if err := wp.Check(); err != nil {
			t.Errorf("plan check: %v\n%s", err, data)
		}
		if back := wp.Core(); !reflect.DeepEqual(back, plan) {
			t.Errorf("plan round trip:\n%+v\nvs\n%+v\n%s", back, plan, data)
		}

		cons := core.Constraints{MaxCostPerIter: budget, MinThroughput: minTput, MaxIterTime: maxIter}
		if isFiniteConstraints(cons) {
			wc, _ := roundTrip(t, FromConstraints(cons))
			if backC := wc.Core(); backC != cons {
				t.Errorf("constraints round trip: %+v vs %+v", backC, cons)
			}
		}

		pool := fuzzPool(gpu, region, count, dp)
		wpool, data := roundTrip(t, FromPool(pool))
		backP := wpool.Cluster()
		if backP.String() != pool.String() {
			t.Errorf("pool round trip:\n%svs\n%s", backP, pool)
		}
		if _, again := roundTrip(t, FromPool(backP)); !bytes.Equal(again, data) {
			t.Errorf("pool encoding not canonical:\n%s\nvs\n%s", again, data)
		}

		// Any other schema version must be rejected, loudly and by name.
		if err := Check(version); (err == nil) != (version == Version) ||
			err != nil && !strings.Contains(err.Error(), "unsupported schema version") {
			t.Errorf("Check(%d) = %v", version, err)
		}
	})
}

// fuzzPlan builds a structurally bounded plan from raw fuzz inputs.
func fuzzPlan(pp, dp, tp, layersPerStage int, gpu, region string) core.Plan {
	pp = bound(pp, 1, 6)
	dp = bound(dp, 1, 4)
	tp = bound(tp, 1, 8)
	layersPerStage = bound(layersPerStage, 1, 16)
	plan := core.Plan{MicroBatchSize: bound(dp*tp, 1, 32)}
	layer := 0
	for s := 0; s < pp; s++ {
		st := core.StagePlan{FirstLayer: layer, NumLayers: layersPerStage}
		for r := 0; r < dp; r++ {
			st.Replicas = append(st.Replicas, core.StageReplica{
				GPU:  core.GPUType(gpu),
				TP:   tp,
				Zone: core.Zone{Region: region, Name: fmt.Sprintf("%s-%c", region, 'a'+byte(r/2%3))},
			})
		}
		plan.Stages = append(plan.Stages, st)
		layer += layersPerStage
	}
	return plan
}

// fuzzPool builds a pool with a couple of cells from raw fuzz inputs.
func fuzzPool(gpu, region string, count, zones int) *cluster.Pool {
	p := cluster.NewPool()
	count = bound(count, 0, 1<<20)
	for z := 0; z < bound(zones, 1, 4); z++ {
		zone := core.Zone{Region: region, Name: fmt.Sprintf("%s-%c", region, 'a'+byte(z))}
		p.Set(zone, core.GPUType(gpu), count+z)
		p.Set(zone, core.V100, z) // zero-count first cell exercises dropping
	}
	return p
}

func bound(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func isFiniteConstraints(c core.Constraints) bool {
	for _, f := range []float64{c.MaxCostPerIter, c.MinThroughput, c.MaxIterTime} {
		if f != f || f > 1e308 || f < -1e308 {
			return false
		}
	}
	return true
}

func FuzzPlanDecode(f *testing.F) {
	for _, p := range []core.Plan{{}, samplePlan(), fuzzPlan(3, 4, 2, 8, "A100-40", "us-central1")} {
		data, err := json.Marshal(FromPlan(p))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"stages":[{"replicas":[{"gpu":"A100-40","tp":1,"n":0}]}]}`))
	f.Add([]byte(`{"stages":[{"replicas":[{"gpu":"A100-40","tp":1,"n":65537}]}]}`))
	f.Add([]byte(`{"stages":[{"replicas":[{"n":40000}]},{"replicas":[{"n":40000}]}]}`))
	f.Add([]byte(`{"stages":[{"replicas":null},{"replicas":[]}],"micro_batch_size":-1}`))
	f.Add([]byte(`{"stages":[{"replicas":[{"n":9223372036854775807},{"n":9223372036854775807}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		wp, err := decodePlan(data)
		if err != nil || wp.Check() != nil {
			return
		}
		p := wp.Core()
		n := 0
		for _, s := range p.Stages {
			n += len(s.Replicas)
		}
		if n > MaxReplicas {
			t.Fatalf("accepted plan expands to %d replicas, over %d", n, MaxReplicas)
		}
		enc, err := json.Marshal(FromPlan(p))
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodePlan(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.Check(); err != nil {
			t.Fatalf("re-encoded plan fails Check: %v\n%s", err, enc)
		}
		if back := again.Core(); !reflect.DeepEqual(back, p) {
			t.Fatalf("re-encoded plan expands differently:\n%+v\nvs\n%+v", back, p)
		}
		if enc2, _ := json.Marshal(FromPlan(again.Core())); !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding not canonical:\n%s\nvs\n%s", enc2, enc)
		}
	})
}
