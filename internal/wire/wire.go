// Package wire is the versioned serialization boundary of the planner
// service: JSON shapes (DTOs) for every domain type a request or response
// carries — models, pools, constraints, plans, estimates, planner results,
// and elastic-run reports — plus the request/response messages of the
// sailor.Service front door.
//
// The package exists so that the domain packages stay codec-free:
// internal/core and internal/cluster know nothing about JSON, and wire owns
// the mapping in both directions. Every top-level message carries a schema
// version (Version); decoding rejects versions this build does not speak
// with a clear error instead of guessing.
//
// Encoding is deterministic: DTOs contain no maps (pools serialize as
// entry lists in the canonical zone-then-GPU order of cluster.Entries), and
// encoding/json emits struct fields in declaration order — so structurally
// equal values marshal to identical bytes. That is what lets the service
// determinism tests compare responses byte-for-byte against in-process
// planning, and what makes golden tests of CLI -json output stable.
//
// Round-trip guarantee: for every codec pair, Unmarshal(Marshal(x))
// reproduces x — exactly (reflect.DeepEqual) for plans, constraints,
// models, estimates, results, and reports; canonically (equal String
// rendering and equal re-encoding) for pools, whose zero-count cells are
// dropped on encode. FuzzWireRoundTrip in this package enforces both.
package wire

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// Version is the wire schema version this build speaks. Bump it when a DTO
// changes incompatibly; decoders reject every other version.
const Version = 1

// Check validates a message's schema version tag.
func Check(v int) error {
	if v != Version {
		return fmt.Errorf("wire: unsupported schema version %d (this build speaks v%d)", v, Version)
	}
	return nil
}

// Zone mirrors core.Zone.
type Zone struct {
	Region string `json:"region"`
	Name   string `json:"name"`
}

// FromZone converts a core zone to its wire shape.
func FromZone(z core.Zone) Zone { return Zone{Region: z.Region, Name: z.Name} }

// Core converts back to the domain type.
func (z Zone) Core() core.Zone { return core.Zone{Region: z.Region, Name: z.Name} }

// Replica mirrors core.StageReplica.
type Replica struct {
	GPU  string `json:"gpu"`
	TP   int    `json:"tp"`
	Zone Zone   `json:"zone"`
}

// Stage mirrors core.StagePlan.
type Stage struct {
	FirstLayer int       `json:"first_layer"`
	NumLayers  int       `json:"num_layers"`
	Replicas   []Replica `json:"replicas"`
}

// Plan mirrors core.Plan.
type Plan struct {
	Stages         []Stage `json:"stages"`
	MicroBatchSize int     `json:"micro_batch_size"`
	Recompute      bool    `json:"recompute"`
}

// FromPlan converts a parallelization plan to its wire shape.
func FromPlan(p core.Plan) Plan {
	out := Plan{MicroBatchSize: p.MicroBatchSize, Recompute: p.Recompute}
	if p.Stages != nil {
		out.Stages = make([]Stage, len(p.Stages))
	}
	for i, s := range p.Stages {
		st := Stage{FirstLayer: s.FirstLayer, NumLayers: s.NumLayers}
		if s.Replicas != nil {
			st.Replicas = make([]Replica, len(s.Replicas))
		}
		for j, r := range s.Replicas {
			st.Replicas[j] = Replica{GPU: string(r.GPU), TP: r.TP, Zone: FromZone(r.Zone)}
		}
		out.Stages[i] = st
	}
	return out
}

// Core converts back to the domain type.
func (p Plan) Core() core.Plan {
	out := core.Plan{MicroBatchSize: p.MicroBatchSize, Recompute: p.Recompute}
	if p.Stages != nil {
		out.Stages = make([]core.StagePlan, len(p.Stages))
	}
	for i, s := range p.Stages {
		st := core.StagePlan{FirstLayer: s.FirstLayer, NumLayers: s.NumLayers}
		if s.Replicas != nil {
			st.Replicas = make([]core.StageReplica, len(s.Replicas))
		}
		for j, r := range s.Replicas {
			st.Replicas[j] = core.StageReplica{GPU: core.GPUType(r.GPU), TP: r.TP, Zone: r.Zone.Core()}
		}
		out.Stages[i] = st
	}
	return out
}

// PoolEntry is one (zone, GPU type, count) availability cell.
type PoolEntry struct {
	Zone  Zone   `json:"zone"`
	GPU   string `json:"gpu"`
	Count int    `json:"count"`
}

// Pool mirrors cluster.Pool as its canonical entry list (zone name then GPU
// type ascending, zero-count cells dropped).
type Pool struct {
	Entries []PoolEntry `json:"entries"`
}

// FromPool converts an availability pool to its wire shape.
func FromPool(p *cluster.Pool) Pool {
	var out Pool
	for _, e := range p.Entries() {
		out.Entries = append(out.Entries, PoolEntry{Zone: FromZone(e.Zone), GPU: string(e.GPU), Count: e.Count})
	}
	return out
}

// Cluster converts back to the domain type.
func (p Pool) Cluster() *cluster.Pool {
	out := cluster.NewPool()
	for _, e := range p.Entries {
		out.Set(e.Zone.Core(), core.GPUType(e.GPU), e.Count)
	}
	return out
}

// Constraints mirrors core.Constraints.
type Constraints struct {
	MaxCostPerIter float64 `json:"max_cost_per_iter"`
	MinThroughput  float64 `json:"min_throughput"`
	MaxIterTime    float64 `json:"max_iter_time"`
}

// FromConstraints converts plan constraints to their wire shape.
func FromConstraints(c core.Constraints) Constraints {
	return Constraints{MaxCostPerIter: c.MaxCostPerIter, MinThroughput: c.MinThroughput, MaxIterTime: c.MaxIterTime}
}

// Core converts back to the domain type.
func (c Constraints) Core() core.Constraints {
	return core.Constraints{MaxCostPerIter: c.MaxCostPerIter, MinThroughput: c.MinThroughput, MaxIterTime: c.MaxIterTime}
}

// Model mirrors model.Config.
type Model struct {
	Name        string `json:"name"`
	Hidden      int    `json:"hidden"`
	Layers      int    `json:"layers"`
	Heads       int    `json:"heads"`
	Vocab       int    `json:"vocab"`
	SeqLen      int    `json:"seq_len"`
	GlobalBatch int    `json:"global_batch"`
}

// FromModel converts a training-job config to its wire shape.
func FromModel(m model.Config) Model {
	return Model{Name: m.Name, Hidden: m.Hidden, Layers: m.Layers, Heads: m.Heads,
		Vocab: m.Vocab, SeqLen: m.SeqLen, GlobalBatch: m.GlobalBatch}
}

// Config converts back to the domain type.
func (m Model) Config() model.Config {
	return model.Config{Name: m.Name, Hidden: m.Hidden, Layers: m.Layers, Heads: m.Heads,
		Vocab: m.Vocab, SeqLen: m.SeqLen, GlobalBatch: m.GlobalBatch}
}

// Estimate mirrors core.Estimate.
type Estimate struct {
	IterTime       float64   `json:"iter_time"`
	ComputeCost    float64   `json:"compute_cost"`
	EgressCost     float64   `json:"egress_cost"`
	PeakMemory     int64     `json:"peak_memory"`
	PeakMemoryGPU  string    `json:"peak_memory_gpu"`
	FitsMemory     bool      `json:"fits_memory"`
	StageTimes     []float64 `json:"stage_times"`
	StragglerStage int       `json:"straggler_stage"`
}

// FromEstimate converts a plan evaluation to its wire shape.
func FromEstimate(e core.Estimate) Estimate {
	return Estimate{
		IterTime:       e.IterTime,
		ComputeCost:    e.ComputeCost,
		EgressCost:     e.EgressCost,
		PeakMemory:     e.PeakMemory,
		PeakMemoryGPU:  string(e.PeakMemoryGPU),
		FitsMemory:     e.FitsMemory,
		StageTimes:     e.StageTimes,
		StragglerStage: e.StragglerStage,
	}
}

// Core converts back to the domain type.
func (e Estimate) Core() core.Estimate {
	return core.Estimate{
		IterTime:       e.IterTime,
		ComputeCost:    e.ComputeCost,
		EgressCost:     e.EgressCost,
		PeakMemory:     e.PeakMemory,
		PeakMemoryGPU:  core.GPUType(e.PeakMemoryGPU),
		FitsMemory:     e.FitsMemory,
		StageTimes:     e.StageTimes,
		StragglerStage: e.StragglerStage,
	}
}

// PlanResult mirrors planner.Result. SearchTime crosses the wire as integer
// nanoseconds; it is the one wall-clock (non-deterministic) field, which
// determinism tests and golden files zero before comparing.
type PlanResult struct {
	Plan            Plan     `json:"plan"`
	Estimate        Estimate `json:"estimate"`
	SearchTimeNS    int64    `json:"search_time_ns"`
	Explored        int      `json:"explored"`
	OOMPlansEmitted int      `json:"oom_plans_emitted"`
	WarmStart       bool     `json:"warm_start"`
	CacheHits       int      `json:"cache_hits"`
	// Degraded marks a deadline-cut search answered with the job's warm
	// incumbent instead of a fresh result; omitted when false so existing
	// goldens are byte-unchanged.
	Degraded bool `json:"degraded,omitempty"`
}

// FromResult converts a planner result to its wire shape.
func FromResult(r planner.Result) PlanResult {
	return PlanResult{
		Plan:            FromPlan(r.Plan),
		Estimate:        FromEstimate(r.Estimate),
		SearchTimeNS:    r.SearchTime.Nanoseconds(),
		Explored:        r.Explored,
		OOMPlansEmitted: r.OOMPlansEmitted,
		WarmStart:       r.WarmStart,
		CacheHits:       r.CacheHits,
		Degraded:        r.Degraded,
	}
}

// Result converts back to the domain type.
func (r PlanResult) Result() planner.Result {
	return planner.Result{
		Plan:            r.Plan.Core(),
		Estimate:        r.Estimate.Core(),
		SearchTime:      time.Duration(r.SearchTimeNS),
		Explored:        r.Explored,
		OOMPlansEmitted: r.OOMPlansEmitted,
		WarmStart:       r.WarmStart,
		CacheHits:       r.CacheHits,
		Degraded:        r.Degraded,
	}
}

// PhaseTimings mirrors runtime.PhaseTimings.
type PhaseTimings struct {
	Planning        float64 `json:"planning"`
	Cleanup         float64 `json:"cleanup"`
	Broadcast       float64 `json:"broadcast"`
	GroupInit       float64 `json:"group_init"`
	ModelRedef      float64 `json:"model_redef"`
	Dataloader      float64 `json:"dataloader"`
	CkptLoad        float64 `json:"ckpt_load"`
	RolledBackIters int     `json:"rolled_back_iters"`
	PlanCacheHits   int     `json:"plan_cache_hits"`
	PlanExplored    int     `json:"plan_explored"`
}

// FromPhaseTimings converts a reconfiguration breakdown to its wire shape.
func FromPhaseTimings(t runtime.PhaseTimings) PhaseTimings {
	return PhaseTimings{
		Planning:        t.Planning,
		Cleanup:         t.Cleanup,
		Broadcast:       t.Broadcast,
		GroupInit:       t.GroupInit,
		ModelRedef:      t.ModelRedef,
		Dataloader:      t.Dataloader,
		CkptLoad:        t.CkptLoad,
		RolledBackIters: t.RolledBackIters,
		PlanCacheHits:   t.PlanCacheHits,
		PlanExplored:    t.PlanExplored,
	}
}

// Runtime converts back to the domain type.
func (t PhaseTimings) Runtime() runtime.PhaseTimings {
	return runtime.PhaseTimings{
		Planning:        t.Planning,
		Cleanup:         t.Cleanup,
		Broadcast:       t.Broadcast,
		GroupInit:       t.GroupInit,
		ModelRedef:      t.ModelRedef,
		Dataloader:      t.Dataloader,
		CkptLoad:        t.CkptLoad,
		RolledBackIters: t.RolledBackIters,
		PlanCacheHits:   t.PlanCacheHits,
		PlanExplored:    t.PlanExplored,
	}
}

// Report mirrors runtime.Report.
type Report struct {
	IterationsDone   int            `json:"iterations_done"`
	VirtualSeconds   float64        `json:"virtual_seconds"`
	Reconfigs        []PhaseTimings `json:"reconfigs"`
	PlansUsed        []Plan         `json:"plans_used"`
	LostIterations   int            `json:"lost_iterations"`
	CheckpointsTaken int            `json:"checkpoints_taken"`
	PlanningSeconds  float64        `json:"planning_seconds"`
	PlanCacheHits    int            `json:"plan_cache_hits"`
}

// FromReport converts an elastic-run report to its wire shape.
func FromReport(r runtime.Report) Report {
	out := Report{
		IterationsDone:   r.IterationsDone,
		VirtualSeconds:   r.VirtualSeconds,
		LostIterations:   r.LostIterations,
		CheckpointsTaken: r.CheckpointsTaken,
		PlanningSeconds:  r.PlanningSeconds,
		PlanCacheHits:    r.PlanCacheHits,
	}
	if r.Reconfigs != nil {
		out.Reconfigs = make([]PhaseTimings, len(r.Reconfigs))
		for i, t := range r.Reconfigs {
			out.Reconfigs[i] = FromPhaseTimings(t)
		}
	}
	if r.PlansUsed != nil {
		out.PlansUsed = make([]Plan, len(r.PlansUsed))
		for i, p := range r.PlansUsed {
			out.PlansUsed[i] = FromPlan(p)
		}
	}
	return out
}

// FleetEvent mirrors trace.Event: one availability change applied to the
// fleet ledger. The timestamp crosses the wire as integer nanoseconds.
type FleetEvent struct {
	AtNS  int64  `json:"at_ns"`
	Zone  Zone   `json:"zone"`
	GPU   string `json:"gpu"`
	Delta int    `json:"delta"`
}

// FromFleetEvent converts an availability event to its wire shape.
func FromFleetEvent(e trace.Event) FleetEvent {
	return FleetEvent{AtNS: e.At.Nanoseconds(), Zone: FromZone(e.Zone), GPU: string(e.GPU), Delta: e.Delta}
}

// Trace converts back to the domain type.
func (e FleetEvent) Trace() trace.Event {
	return trace.Event{At: time.Duration(e.AtNS), Zone: e.Zone.Core(), GPU: core.GPUType(e.GPU), Delta: e.Delta}
}

// FromLease converts a fleet lease to its wire table row.
func FromLease(le fleet.Lease) LeaseInfo {
	return LeaseInfo{
		Job:             le.Job,
		Priority:        le.Priority,
		GPUs:            le.GPUs(),
		AcquiredVersion: le.Acquired,
		Plan:            FromPlan(le.Plan),
	}
}

// FromFleetSnapshot converts a ledger snapshot to the wire stats shape.
func FromFleetSnapshot(s fleet.Snapshot) FleetStats {
	out := FleetStats{
		Version:      s.Version,
		CapacityGPUs: s.Capacity.TotalGPUs(),
		FreeGPUs:     s.Free.TotalGPUs(),
		JobCapGPUs:   s.JobCap,
		Capacity:     FromPool(s.Capacity),
		Free:         FromPool(s.Free),
	}
	out.LeasedGPUs = out.CapacityGPUs - out.FreeGPUs
	for _, le := range s.Leases {
		out.Leases = append(out.Leases, FromLease(le))
	}
	return out
}

// Runtime converts back to the domain type.
func (r Report) Runtime() runtime.Report {
	out := runtime.Report{
		IterationsDone:   r.IterationsDone,
		VirtualSeconds:   r.VirtualSeconds,
		LostIterations:   r.LostIterations,
		CheckpointsTaken: r.CheckpointsTaken,
		PlanningSeconds:  r.PlanningSeconds,
		PlanCacheHits:    r.PlanCacheHits,
	}
	if r.Reconfigs != nil {
		out.Reconfigs = make([]runtime.PhaseTimings, len(r.Reconfigs))
		for i, t := range r.Reconfigs {
			out.Reconfigs[i] = t.Runtime()
		}
	}
	if r.PlansUsed != nil {
		out.PlansUsed = make([]core.Plan, len(r.PlansUsed))
		for i, p := range r.PlansUsed {
			out.PlansUsed[i] = p.Core()
		}
	}
	return out
}
