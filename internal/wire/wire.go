// Package wire is the schema of the planner service's rpc messages: JSON
// shapes (DTOs) for every domain type a request or response carries —
// models, pools, constraints, plans, estimates, planner results, and fleet
// tables — plus the request/response messages of the sailor.Service front
// door.
//
// The package exists so that the domain packages stay codec-free:
// internal/core and internal/cluster know nothing about JSON, and wire owns
// the mapping in both directions. Every message carries a schema version
// (Version); Check rejects versions this build does not speak with a clear
// error instead of guessing. Files on disk (journals, snapshots, trace
// files, fault schedules) version their own formats in their own packages.
//
// Encoding is deterministic: DTOs contain no maps (pools serialize as
// entry lists in the canonical zone-then-GPU order of cluster.Entries), and
// encoding/json emits struct fields in declaration order — so structurally
// equal values marshal to identical bytes. That is what lets the service
// determinism tests compare responses byte-for-byte against in-process
// planning, and what makes golden tests of CLI -json output stable.
//
// Decoding does not reflect: Decode reads every rpc message (and the DTOs it
// carries) with a hand-written decoder that accepts and decodes exactly
// what encoding/json's Unmarshal would, except that a key naming a field
// only case-insensitively ("Job" for "job") is refused with ErrFoldedKey
// rather than decoded. FuzzDecodeParity holds every decoder to
// encoding/json on arbitrary bytes. Encoding stays encoding/json, so the
// bytes a message crosses as do not change.
//
// Round trip: the JSON of FromX(x), decoded and converted back, is x —
// exactly for plans, constraints, models, estimates, and results;
// canonically for pools, whose zero-count cells are dropped on encode.
// A plan crosses as runs of identical consecutive replicas (ReplicaRun),
// which Core expands again in order, nil and empty replica lists kept
// apart. A run's count is the peer's to choose, so a receiver calls
// Plan.Check, which bounds the expansion by MaxReplicas, before Core.
//
// Files on disk do not embed Plan: package persist keeps its own stored
// plan shape, so this schema's plan encoding can change without a journal
// or snapshot format change.
package wire

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/trace"
)

// Version is the wire schema version this build speaks. Bump it when a DTO
// changes incompatibly; decoders reject every other version.
const Version = 3

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

// MaxReplicas bounds the replicas a plan may expand to, summed over every
// run of every stage. A run's count comes from the peer, so Core would
// otherwise allocate whatever a message asks for; Check enforces the bound.
// It sits far above any pool this repository plans.
const MaxReplicas = 1 << 16

// ReplicaRun is N consecutive identical replicas of a stage: core.StageReplica
// repeated N times. Data-parallel replicas of a stage are nearly always
// identical, so a stage of d replicas usually crosses the wire as one run.
type ReplicaRun struct {
	GPU  string `json:"gpu"`
	TP   int    `json:"tp"`
	Zone Zone   `json:"zone"`
	N    int    `json:"n"`
}

// Stage mirrors core.StagePlan, its replicas as runs in replica order.
type Stage struct {
	FirstLayer int          `json:"first_layer"`
	NumLayers  int          `json:"num_layers"`
	Replicas   []ReplicaRun `json:"replicas"`
}

// Plan mirrors core.Plan.
type Plan struct {
	Stages         []Stage `json:"stages"`
	MicroBatchSize int     `json:"micro_batch_size"`
}

// FromPlan converts a parallelization plan to its wire shape, merging each
// run of consecutive equal replicas into one ReplicaRun.
func FromPlan(p core.Plan) Plan {
	out := Plan{MicroBatchSize: p.MicroBatchSize}
	if p.Stages != nil {
		out.Stages = make([]Stage, len(p.Stages))
	}
	for i, s := range p.Stages {
		st := Stage{FirstLayer: s.FirstLayer, NumLayers: s.NumLayers}
		if s.Replicas != nil {
			runs := 0
			for j, r := range s.Replicas {
				if j == 0 || r != s.Replicas[j-1] {
					runs++
				}
			}
			st.Replicas = make([]ReplicaRun, 0, runs)
		}
		for j, r := range s.Replicas {
			if j > 0 && r == s.Replicas[j-1] {
				st.Replicas[len(st.Replicas)-1].N++
				continue
			}
			st.Replicas = append(st.Replicas, ReplicaRun{GPU: string(r.GPU), TP: r.TP, Zone: FromZone(r.Zone), N: 1})
		}
		out.Stages[i] = st
	}
	return out
}

// Check bounds what Core expands: every run holds at least one replica, and
// the plan at most MaxReplicas in all. Call it on every plan decoded from a
// peer before Core, as Check is called on the message's version tag.
func (p Plan) Check() error {
	total := 0
	for i, s := range p.Stages {
		for j, r := range s.Replicas {
			if r.N < 1 {
				return fmt.Errorf("wire: plan stage %d run %d has %d replicas, want at least 1", i, j, r.N)
			}
			if r.N > MaxReplicas-total {
				return fmt.Errorf("wire: plan has more than %d replicas", MaxReplicas)
			}
			total += r.N
		}
	}
	return nil
}

// Core converts back to the domain type, expanding every run in order. It
// trusts a plan that Check accepted; a run counting fewer than one replica
// expands to none.
func (p Plan) Core() core.Plan {
	out := core.Plan{MicroBatchSize: p.MicroBatchSize}
	if p.Stages != nil {
		out.Stages = make([]core.StagePlan, len(p.Stages))
	}
	for i, s := range p.Stages {
		st := core.StagePlan{FirstLayer: s.FirstLayer, NumLayers: s.NumLayers}
		if s.Replicas != nil {
			n := 0
			for _, r := range s.Replicas {
				n += max(r.N, 0)
			}
			st.Replicas = make([]core.StageReplica, 0, n)
		}
		for _, r := range s.Replicas {
			rep := core.StageReplica{GPU: core.GPUType(r.GPU), TP: r.TP, Zone: r.Zone.Core()}
			for k := 0; k < r.N; k++ {
				st.Replicas = append(st.Replicas, rep)
			}
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
	Plan         Plan     `json:"plan"`
	Estimate     Estimate `json:"estimate"`
	SearchTimeNS int64    `json:"search_time_ns"`
	Explored     int      `json:"explored"`
	WarmStart    bool     `json:"warm_start"`
	CacheHits    int      `json:"cache_hits"`
	// Degraded marks a deadline-cut search answered with the job's warm
	// incumbent instead of a fresh result; omitted when false so existing
	// goldens are byte-unchanged.
	Degraded bool `json:"degraded,omitempty"`
}

// FromResult converts a planner result to its wire shape.
func FromResult(r planner.Result) PlanResult {
	return PlanResult{
		Plan:         FromPlan(r.Plan),
		Estimate:     FromEstimate(r.Estimate),
		SearchTimeNS: r.SearchTime.Nanoseconds(),
		Explored:     r.Explored,
		WarmStart:    r.WarmStart,
		CacheHits:    r.CacheHits,
		Degraded:     r.Degraded,
	}
}

// Result converts back to the domain type.
func (r PlanResult) Result() planner.Result {
	return planner.Result{
		Plan:       r.Plan.Core(),
		Estimate:   r.Estimate.Core(),
		SearchTime: time.Duration(r.SearchTimeNS),
		Explored:   r.Explored,
		WarmStart:  r.WarmStart,
		CacheHits:  r.CacheHits,
		Degraded:   r.Degraded,
	}
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
