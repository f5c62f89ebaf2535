// Package baselines implements the planners Sailor is evaluated against
// (Table 1): Piper, Varuna, AMP, Metis, FlashFlex, Galvatron, Aceso, DTFM,
// and Oobleck, behind one unified API — the paper's §5 does the same
// ("All baselines ... are integrated into our platform with a unified
// Python API").
//
// Each baseline couples its published search strategy with its published
// estimator structure, including the estimator's documented omissions
// (no memory model, optimizer states ignored, theoretical FLOPS, uniform
// bandwidth, ...). Those omissions — not caricature — are what produce the
// paper's Figures 3, 5, 6, 8, 9: a planner that cannot see memory emits
// OOM plans; a planner that cannot see stragglers mixes GPU types badly.
package baselines

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
)

// Caps describes a planner's support matrix: the columns of Table 1.
type Caps struct {
	Parallelisms      string // "3D" or "2D"
	PicksResources    bool   // recommends the resource allocation itself
	HeterogeneousGPUs bool
	MultiZone         bool
}

// String renders the Table 1 support tuple.
func (c Caps) String() string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	return fmt.Sprintf("%s, alloc:%s, hetero:%s, multizone:%s",
		c.Parallelisms, mark(c.PicksResources), mark(c.HeterogeneousGPUs), mark(c.MultiZone))
}

// Candidate is one plan in a baseline's preference order together with the
// baseline's own estimates for it.
type Candidate struct {
	Plan core.Plan
	// EstIterTime is the baseline's own predicted seconds/iteration.
	EstIterTime float64
	// EstMemory is the baseline's own predicted peak bytes per GPU;
	// 0 means the baseline has no memory model.
	EstMemory int64
}

// Ranking is a search outcome: candidates in preference order plus the
// wall-clock the search took.
type Ranking struct {
	Candidates []Candidate
	SearchTime time.Duration
}

// Planner is the unified planning API of the evaluation platform.
type Planner interface {
	Name() string
	Caps() Caps
	// Rank searches the configuration space for the pool and returns
	// candidate plans in preference order. Deployment (walking the list
	// until a plan survives the memory of real GPUs) is the harness's
	// job, so that OOM emissions can be counted per Figures 8-9.
	Rank(pool *cluster.Pool) (Ranking, error)
	// Estimator exposes the baseline's own time/memory models for the
	// estimation-accuracy experiments (Figures 3, 5, 6).
	Estimator() Estimator
}

// Estimator predicts iteration time and memory for a given plan using one
// baseline's published model.
type Estimator interface {
	// IterTime returns predicted seconds per iteration.
	IterTime(plan core.Plan) (float64, error)
	// PeakMemory returns predicted peak bytes per GPU, or ok=false when
	// the baseline has no memory model (AMP, DTFM).
	PeakMemory(plan core.Plan) (int64, bool)
}

// Env bundles what every baseline receives: the job, the (shared) profiling
// data, and a search deadline for the slow searchers (the paper caps Metis
// at 300 s).
type Env struct {
	Cfg      model.Config
	Prof     *profiler.Profile
	Deadline time.Duration
}

// --- shared plan-construction helpers --------------------------------------

// vmTopology converts a pool into per-zone whole VMs of the default node
// shape, the fixed topology every baseline requires as input (§5.2).
type vmTopology struct {
	zones []core.Zone
	// nodes[zone][gpu] = number of whole nodes.
	nodes map[core.Zone]map[core.GPUType]int
}

func topologyOf(pool *cluster.Pool) vmTopology {
	t := vmTopology{nodes: map[core.Zone]map[core.GPUType]int{}}
	for _, z := range pool.Zones() {
		for _, g := range pool.GPUTypes() {
			n := pool.Nodes(z, g)
			if n == 0 {
				continue
			}
			if t.nodes[z] == nil {
				t.nodes[z] = map[core.GPUType]int{}
				t.zones = append(t.zones, z)
			}
			t.nodes[z][g] = n
		}
	}
	return t
}

// totalNodes returns the node count of one GPU type across zones.
func (t vmTopology) totalNodes(g core.GPUType) int {
	n := 0
	for _, m := range t.nodes {
		n += m[g]
	}
	return n
}

// gpuTypes lists types with at least one node, fastest (priciest) first so
// "use the best GPUs" baselines pick deterministically.
func (t vmTopology) gpuTypes() []core.GPUType {
	seen := map[core.GPUType]bool{}
	var out []core.GPUType
	for _, z := range t.zones {
		for g := range t.nodes[z] {
			if !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	// Sort by descending hourly price as a speed proxy.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if price(out[j]) > price(out[j-1]) {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
	}
	return out
}

func price(g core.GPUType) float64 {
	spec, err := lookupSpec(g)
	if err != nil {
		return 0
	}
	return spec.CostPerHour
}

// uniformPlan builds the homogeneous plan shape most baselines emit:
// pp stages x dp replicas, all on one GPU type with one TP, layers split
// evenly, replicas packed into zones in order.
func uniformPlan(cfg model.Config, t vmTopology, g core.GPUType, pp, dp, tp, mbs int) (core.Plan, bool) {
	if pp <= 0 || dp <= 0 || tp <= 0 || mbs <= 0 || pp > cfg.Layers {
		return core.Plan{}, false
	}
	// Pack replica slots (each tp GPUs) into whole nodes zone by zone.
	type slot struct{ zone core.Zone }
	var slots []slot
	node := nodeShape(g)
	perNode := node / tp
	if perNode == 0 {
		return core.Plan{}, false // TP exceeds the node (H1 would prune; baselines just fail)
	}
	for _, z := range t.zones {
		for n := 0; n < t.nodes[z][g]; n++ {
			for s := 0; s < perNode; s++ {
				slots = append(slots, slot{z})
			}
		}
	}
	if len(slots) < pp*dp {
		return core.Plan{}, false
	}
	layers := core.SplitLayers(cfg.Layers, pp)
	plan := core.Plan{MicroBatchSize: mbs}
	idx := 0
	first := 0
	for i := 0; i < pp; i++ {
		st := core.StagePlan{FirstLayer: first, NumLayers: layers[i]}
		for r := 0; r < dp; r++ {
			st.Replicas = append(st.Replicas, core.StageReplica{GPU: g, TP: tp, Zone: slots[idx].zone})
			idx++
		}
		plan.Stages = append(plan.Stages, st)
		first += layers[i]
	}
	return plan, true
}

// mixedFillPlan builds the "fill the pipeline with whatever nodes come
// next" shape AMP-style planners produce on heterogeneous pools: uniform
// (pp, dp, tp) degrees, replicas drawn from the fastest type first and
// spilling into slower ones mid-pipeline.
func mixedFillPlan(cfg model.Config, t vmTopology, pp, dp, tp, mbs int) (core.Plan, bool) {
	type slot struct {
		g core.GPUType
		z core.Zone
	}
	var slots []slot
	for _, g := range t.gpuTypes() {
		node := nodeShape(g)
		if tp > node {
			continue
		}
		perNode := node / tp
		for _, z := range t.zones {
			for n := 0; n < t.nodes[z][g]; n++ {
				for s := 0; s < perNode; s++ {
					slots = append(slots, slot{g, z})
				}
			}
		}
	}
	if len(slots) < pp*dp || pp > cfg.Layers {
		return core.Plan{}, false
	}
	layers := core.SplitLayers(cfg.Layers, pp)
	plan := core.Plan{MicroBatchSize: mbs}
	idx := 0
	first := 0
	for i := 0; i < pp; i++ {
		st := core.StagePlan{FirstLayer: first, NumLayers: layers[i]}
		for r := 0; r < dp; r++ {
			st.Replicas = append(st.Replicas, core.StageReplica{GPU: slots[idx].g, TP: tp, Zone: slots[idx].z})
			idx++
		}
		plan.Stages = append(plan.Stages, st)
		first += layers[i]
	}
	return plan, true
}

// powersOfTwo returns 1,2,4,...,<=max.
func powersOfTwo(max int) []int {
	var out []int
	for v := 1; v <= max; v *= 2 {
		out = append(out, v)
	}
	return out
}
