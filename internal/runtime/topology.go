// Package runtime models the Sailor distributed training framework (§4.4):
// a controller deploys the planner's — possibly heterogeneous —
// parallelization plans and reconfigures the job kill-free when resource
// availability changes, restarting from the latest asynchronous checkpoint.
//
// Everything runs on a virtual clock. The controller keeps one liveness
// bit per rank; a preemption clears the bits of the ranks on reclaimed
// GPUs. Each reconfiguration books the §5.5 downtime phases (cleanup,
// broadcast, group init, model and dataloader redefinition, checkpoint
// load) from calibrated costs, and iteration time comes from the
// ground-truth engine, so a multi-hour elasticity scenario replays in
// milliseconds. Checkpoint rollback is exact: training resumes from the
// newest checkpoint whose flush finished, and the iterations past it are
// lost.
package runtime

import (
	"fmt"

	"repro/internal/core"
)

// Topology assigns a global rank to every GPU of a plan. It supports the
// heterogeneous plans of §4.4: different tensor-parallel degrees per stage
// and per replica.
type Topology struct {
	Plan core.Plan
	// Ranks[stage][replica] lists the global ranks of that replica's TP
	// group, in shard order.
	Ranks [][][]int
	// WorldSize is the total number of ranks.
	WorldSize int
}

// BuildTopology enumerates ranks stage-major, replica-minor, shard-last —
// the rank topology the framework "takes as input for each stage" (§4.4).
func BuildTopology(plan core.Plan) (*Topology, error) {
	if len(plan.Stages) == 0 {
		return nil, fmt.Errorf("runtime: empty plan")
	}
	t := &Topology{Plan: plan}
	next := 0
	for _, st := range plan.Stages {
		stageRanks := make([][]int, len(st.Replicas))
		for k, r := range st.Replicas {
			g := make([]int, r.TP)
			for s := range g {
				g[s] = next
				next++
			}
			stageRanks[k] = g
		}
		t.Ranks = append(t.Ranks, stageRanks)
	}
	t.WorldSize = next
	return t, nil
}

// RankInfo locates a rank in the plan.
type RankInfo struct {
	Stage, Replica, Shard int
	GPU                   core.GPUType
	Zone                  core.Zone
}

// Locate returns the placement of a global rank.
func (t *Topology) Locate(rank int) (RankInfo, error) {
	for si, st := range t.Ranks {
		for k, g := range st {
			for s, r := range g {
				if r == rank {
					rep := t.Plan.Stages[si].Replicas[k]
					return RankInfo{Stage: si, Replica: k, Shard: s, GPU: rep.GPU, Zone: rep.Zone}, nil
				}
			}
		}
	}
	return RankInfo{}, fmt.Errorf("runtime: rank %d not in topology", rank)
}
