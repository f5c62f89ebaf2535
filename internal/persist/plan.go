package persist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Plan is the stored shape of a core.Plan in journal records and
// snapshots: one entry per replica, in replica order. Persist owns it so
// that a change to the rpc schema's plan encoding (wire.Plan) changes no
// byte on disk; testdata/record-frames.golden pins the shape.
type Plan struct {
	Stages         []Stage `json:"stages"`
	MicroBatchSize int     `json:"micro_batch_size"`
	// Recompute is a legacy key, always written false (see legacyFalse).
	Recompute legacyFalse `json:"recompute"`
}

// legacyFalse is a stored flag that only false may hold. Builds that could
// plan activation rematerialisation stored a plan's "recompute" flag; no
// plan rematerialises any more, so it is written false and the stored
// shape is unchanged. Decoding is strict, so the key stays; a stored true
// is refused, wherever a plan is decoded, because dropping it would
// recover a different plan.
type legacyFalse bool

func (*legacyFalse) UnmarshalJSON(b []byte) error {
	if s := string(b); s != "false" && s != "null" {
		return fmt.Errorf(`stored plan sets "recompute": %s, but no plan rematerialises activations any more`, b)
	}
	return nil
}

// Stage is the stored shape of a core.StagePlan.
type Stage struct {
	FirstLayer int       `json:"first_layer"`
	NumLayers  int       `json:"num_layers"`
	Replicas   []Replica `json:"replicas"`
}

// Replica is the stored shape of a core.StageReplica.
type Replica struct {
	GPU  string    `json:"gpu"`
	TP   int       `json:"tp"`
	Zone wire.Zone `json:"zone"`
}

// PlanFrom converts a plan to its stored shape. Nil stage and replica
// lists stay nil, empty ones empty.
func PlanFrom(p core.Plan) Plan {
	out := Plan{MicroBatchSize: p.MicroBatchSize}
	if p.Stages != nil {
		out.Stages = make([]Stage, len(p.Stages))
	}
	for i, s := range p.Stages {
		st := Stage{FirstLayer: s.FirstLayer, NumLayers: s.NumLayers}
		if s.Replicas != nil {
			st.Replicas = make([]Replica, len(s.Replicas))
		}
		for j, r := range s.Replicas {
			st.Replicas[j] = Replica{GPU: string(r.GPU), TP: r.TP, Zone: wire.FromZone(r.Zone)}
		}
		out.Stages[i] = st
	}
	return out
}

// Core converts back to the domain type.
func (p Plan) Core() core.Plan {
	out := core.Plan{MicroBatchSize: p.MicroBatchSize}
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
