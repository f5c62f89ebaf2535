package cluster

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPoolBasics(t *testing.T) {
	za := GCPZone("us-central1", 'a')
	zb := GCPZone("us-central1", 'b')
	p := NewPool().Set(za, core.A100, 16).Set(zb, core.V100, 32)
	if got := p.Available(za, core.A100); got != 16 {
		t.Errorf("Available = %d, want 16", got)
	}
	if got := p.TotalOf(core.A100); got != 16 {
		t.Errorf("TotalOf = %d, want 16", got)
	}
	if got := p.TotalGPUs(); got != 48 {
		t.Errorf("TotalGPUs = %d, want 48", got)
	}
	p.Add(za, core.A100, -20)
	if got := p.Available(za, core.A100); got != 0 {
		t.Errorf("Add should clamp at zero, got %d", got)
	}
}

func TestZonesSortedAndFiltered(t *testing.T) {
	za := GCPZone("us-west1", 'a')
	zb := GCPZone("us-central1", 'b')
	zc := GCPZone("us-central1", 'c')
	p := NewPool().Set(za, core.A100, 4).Set(zb, core.A100, 4).Set(zc, core.A100, 0)
	zs := p.Zones()
	if len(zs) != 2 {
		t.Fatalf("Zones = %v, want zero-count zone filtered", zs)
	}
	if zs[0].Name != "us-central1-b" {
		t.Errorf("Zones not sorted: %v", zs)
	}
	rs := p.Regions()
	if len(rs) != 2 || rs[0] != "us-central1" {
		t.Errorf("Regions = %v", rs)
	}
}

func TestGPUTypes(t *testing.T) {
	za := GCPZone("us-central1", 'a')
	p := NewPool().Set(za, core.V100, 8).Set(za, core.A100, 8).Set(za, core.T4, 0)
	ts := p.GPUTypes()
	if len(ts) != 2 || ts[0] != core.A100 || ts[1] != core.V100 {
		t.Errorf("GPUTypes = %v", ts)
	}
}

func TestCloneIsDeep(t *testing.T) {
	za := GCPZone("us-central1", 'a')
	p := NewPool().Set(za, core.A100, 8)
	q := p.Clone()
	q.Add(za, core.A100, -8)
	if p.Available(za, core.A100) != 8 {
		t.Error("Clone must not alias the original")
	}
}

func onePlan(z core.Zone, n, tp int) core.Plan {
	reps := make([]core.StageReplica, n)
	for i := range reps {
		reps[i] = core.StageReplica{GPU: core.A100, TP: tp, Zone: z}
	}
	return core.Plan{MicroBatchSize: 1, Stages: []core.StagePlan{
		{FirstLayer: 0, NumLayers: 24, Replicas: reps},
	}}
}

func TestCanFitAndSubtract(t *testing.T) {
	za := GCPZone("us-central1", 'a')
	p := NewPool().Set(za, core.A100, 16)
	plan := onePlan(za, 2, 4) // 8 GPUs
	if !p.CanFit(plan) {
		t.Fatal("plan should fit")
	}
	if err := p.Subtract(plan); err != nil {
		t.Fatal(err)
	}
	if got := p.Available(za, core.A100); got != 8 {
		t.Errorf("after Subtract: %d, want 8", got)
	}
	big := onePlan(za, 4, 4) // 16 GPUs > 8 remaining
	if p.CanFit(big) {
		t.Error("oversized plan should not fit")
	}
	if err := p.Subtract(big); err == nil {
		t.Error("Subtract must reject oversized plan")
	}
}

// TestSubtractErrorPaths: over-subtraction and demand in zones/types the
// pool has never seen fail with a message naming the deficient cell, and a
// failed Subtract leaves the pool untouched.
func TestSubtractErrorPaths(t *testing.T) {
	za := GCPZone("us-central1", 'a')
	zb := GCPZone("us-central1", 'b')
	p := NewPool().Set(za, core.A100, 8)

	over := onePlan(za, 3, 4) // 12 GPUs > 8
	if err := p.Subtract(over); err == nil || !strings.Contains(err.Error(), "us-central1-a") ||
		!strings.Contains(err.Error(), "12") {
		t.Errorf("over-subtraction error = %v, want cell and demand named", err)
	}
	unknownZone := onePlan(zb, 1, 4)
	if err := p.Subtract(unknownZone); err == nil || !strings.Contains(err.Error(), "us-central1-b") {
		t.Errorf("unknown-zone error = %v, want zone named", err)
	}
	unknownType := core.Plan{MicroBatchSize: 1, Stages: []core.StagePlan{{
		FirstLayer: 0, NumLayers: 24,
		Replicas: []core.StageReplica{{GPU: core.H100, TP: 2, Zone: za}},
	}}}
	if err := p.Subtract(unknownType); err == nil || !strings.Contains(err.Error(), string(core.H100)) {
		t.Errorf("unknown-type error = %v, want GPU type named", err)
	}
	// Three failed subtractions must not have touched the pool.
	if got := p.Available(za, core.A100); got != 8 {
		t.Errorf("failed Subtract mutated the pool: %d, want 8", got)
	}
	// A mixed plan that fits one cell but not the other fails atomically.
	p.Set(zb, core.V100, 2)
	mixed := core.Plan{MicroBatchSize: 1, Stages: []core.StagePlan{{
		FirstLayer: 0, NumLayers: 24,
		Replicas: []core.StageReplica{
			{GPU: core.A100, TP: 4, Zone: za},
			{GPU: core.V100, TP: 4, Zone: zb}, // needs 4, only 2 there
		},
	}}}
	if err := p.Subtract(mixed); err == nil {
		t.Fatal("partially-fitting plan must fail")
	}
	if p.Available(za, core.A100) != 8 || p.Available(zb, core.V100) != 2 {
		t.Error("failed mixed Subtract must leave every cell untouched")
	}
}

func TestNodes(t *testing.T) {
	za := GCPZone("us-central1", 'a')
	p := NewPool().Set(za, core.A100, 18)
	if got := p.Nodes(za, core.A100); got != 4 { // 4-GPU VMs
		t.Errorf("Nodes = %d, want 4 whole VMs from 18 GPUs", got)
	}
}

func TestPoolString(t *testing.T) {
	za := GCPZone("us-central1", 'a')
	s := NewPool().Set(za, core.A100, 8).String()
	if !strings.Contains(s, "us-central1-a A100-40 x8") {
		t.Errorf("String = %q", s)
	}
}

func TestEntriesDeterministicOrder(t *testing.T) {
	p := NewPool().
		Set(GCPZone("us-west1", 'b'), core.V100, 8).
		Set(GCPZone("us-central1", 'a'), core.V100, 4).
		Set(GCPZone("us-central1", 'a'), core.A100, 16).
		Set(GCPZone("us-east1", 'c'), core.A100, 0) // zero cells are dropped
	es := p.Entries()
	want := []Entry{
		{GCPZone("us-central1", 'a'), core.A100, 16},
		{GCPZone("us-central1", 'a'), core.V100, 4},
		{GCPZone("us-west1", 'b'), core.V100, 8},
	}
	if len(es) != len(want) {
		t.Fatalf("Entries = %v, want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("Entries[%d] = %v, want %v", i, es[i], want[i])
		}
	}
	// Rebuilding a pool from its entries preserves the canonical rendering.
	q := NewPool()
	for _, e := range es {
		q.Set(e.Zone, e.GPU, e.Count)
	}
	if q.String() != p.String() {
		t.Errorf("entry round trip changed the pool:\n%s\nvs\n%s", q, p)
	}
}

// TestCapTotal pins the canonical truncation the fleet's per-job cap uses:
// cells fill in Entries order (zone name, then GPU type), so equal pools
// always truncate identically.
func TestCapTotal(t *testing.T) {
	za, zb := GCPZone("us-central1", 'a'), GCPZone("us-central1", 'b')
	p := NewPool().Set(za, core.A100, 3).Set(za, core.V100, 2).Set(zb, core.A100, 4)

	capped := p.CapTotal(5)
	if got := capped.TotalGPUs(); got != 5 {
		t.Fatalf("CapTotal(5) kept %d GPUs", got)
	}
	// Entries order: (za,A100)=3 first, then (za,V100)=2; (zb,A100) misses out.
	if got := capped.Available(za, core.A100); got != 3 {
		t.Errorf("first cell = %d, want 3", got)
	}
	if got := capped.Available(za, core.V100); got != 2 {
		t.Errorf("second cell = %d, want 2", got)
	}
	if got := capped.Available(zb, core.A100); got != 0 {
		t.Errorf("overflow cell = %d, want 0", got)
	}

	// A cap above the total is a no-op copy; n <= 0 empties the pool.
	if got := p.CapTotal(100).TotalGPUs(); got != p.TotalGPUs() {
		t.Errorf("CapTotal(100) = %d GPUs, want %d", got, p.TotalGPUs())
	}
	if got := p.CapTotal(0).TotalGPUs(); got != 0 {
		t.Errorf("CapTotal(0) = %d GPUs, want 0", got)
	}
}

// TestFilterTypes: restriction to a type set, with the empty filter as a
// full copy.
func TestFilterTypes(t *testing.T) {
	za, zb := GCPZone("us-central1", 'a'), GCPZone("us-central1", 'b')
	p := NewPool().Set(za, core.A100, 3).Set(za, core.V100, 2).Set(zb, core.A100, 4)

	v := p.FilterTypes([]core.GPUType{core.V100})
	if got := v.TotalGPUs(); got != 2 {
		t.Fatalf("V100 filter kept %d GPUs, want 2", got)
	}
	if got := v.Available(za, core.A100) + v.Available(zb, core.A100); got != 0 {
		t.Errorf("filter leaked %d A100s", got)
	}

	all := p.FilterTypes(nil)
	if got := all.TotalGPUs(); got != p.TotalGPUs() {
		t.Errorf("empty filter = %d GPUs, want full copy %d", got, p.TotalGPUs())
	}
	all.Set(za, core.A100, 0)
	if p.Available(za, core.A100) != 3 {
		t.Error("empty-filter copy aliases the source pool")
	}
}

// TestOnPrem covers the synthetic on-premise zone constructor.
func TestOnPrem(t *testing.T) {
	z := OnPrem()
	if z.Region != "onprem" || z.Name != "onprem-dc1" {
		t.Fatalf("OnPrem() = %+v", z)
	}
}

func TestCheckCounts(t *testing.T) {
	za, zb := GCPZone("us-central1", 'a'), GCPZone("us-central1", 'b')
	if err := NewPool().Set(za, core.A100, 16).Set(za, core.V100, 0).CheckCounts(); err != nil {
		t.Errorf("non-negative pool: %v", err)
	}
	var nilPool *Pool
	if err := nilPool.CheckCounts(); err != nil {
		t.Errorf("nil pool: %v", err)
	}
	// The first negative cell in zone-then-GPU order is named.
	p := NewPool().Set(zb, core.A100, -1).Set(za, core.A100, 16).Set(za, core.V100, -20).Set(za, core.H100, -3)
	err := p.CheckCounts()
	if err == nil || !strings.Contains(err.Error(), "us-central1-a/"+string(core.H100)) || !strings.Contains(err.Error(), "-3") {
		t.Errorf("err = %v, want the us-central1-a %s cell named with count -3", err, core.H100)
	}
}
