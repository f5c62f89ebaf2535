// Package core defines the shared domain types of the Sailor reproduction:
// GPU and zone identifiers, parallelization plans with heterogeneous
// per-stage tensor parallelism, optimization objectives, and constraints.
//
// Every other package (profiler, simulator, planner, baselines, runtime)
// speaks in these types, mirroring the paper's decomposition in §4.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// GPUType identifies a GPU generation/SKU, e.g. "A100-40" or "V100-16".
// GPUs are treated as black-box compute units (paper §4.3), so a GPUType is
// only a key into the hardware catalogue and profiling tables.
type GPUType string

// Common GPU types used throughout the evaluation.
const (
	A100     GPUType = "A100-40"
	V100     GPUType = "V100-16"
	GH200    GPUType = "GH200-96"
	RTX3090  GPUType = "RTX-3090"
	RTX2080  GPUType = "RTX-2080"
	TitanRTX GPUType = "Titan-RTX"
	A10G     GPUType = "A10G"
	T4       GPUType = "T4"
	H100     GPUType = "H100-80"
)

// Zone identifies a cloud availability zone within a region, e.g.
// region "us-central1", zone "us-central1-a". On-premise clusters use a
// single synthetic zone.
type Zone struct {
	Region string
	Name   string
}

// String returns the fully qualified zone name.
func (z Zone) String() string { return z.Name }

// SameRegion reports whether both zones belong to the same cloud region.
// Heuristic H6 treats all zones of one region as a single zone.
func (z Zone) SameRegion(o Zone) bool { return z.Region == o.Region }

// StageReplica is one data-parallel replica of a pipeline stage: a set of
// TP GPUs of a single type within a single zone (heuristics H1 and H5).
type StageReplica struct {
	GPU  GPUType
	TP   int
	Zone Zone
}

// GPUCount returns the number of GPUs the replica occupies.
func (r StageReplica) GPUCount() int { return r.TP }

// StagePlan describes one pipeline stage: the contiguous range of
// transformer layers it owns and its data-parallel replicas. Replicas may
// use different GPU types and tensor-parallel degrees (the heterogeneous
// plans of §4.4); len(Replicas) equals the plan's data-parallel degree.
type StagePlan struct {
	// FirstLayer and NumLayers delimit the contiguous layer range
	// [FirstLayer, FirstLayer+NumLayers) assigned to this stage.
	FirstLayer int
	NumLayers  int
	Replicas   []StageReplica
}

// GPUCount returns the total GPUs used by all replicas of the stage.
func (s StagePlan) GPUCount() int {
	n := 0
	for _, r := range s.Replicas {
		n += r.GPUCount()
	}
	return n
}

// Plan is a complete job parallelization plan: the pipeline decomposition,
// the per-stage replicas, and the microbatch size. The global batch size is
// part of the job spec, not the plan: Sailor never changes it (§4.2).
type Plan struct {
	Stages []StagePlan
	// MicroBatchSize is the per-pipeline microbatch size (sequences).
	MicroBatchSize int
}

// PP returns the pipeline-parallel degree (number of stages).
func (p Plan) PP() int { return len(p.Stages) }

// DP returns the data-parallel degree. All stages share the same degree
// (paper §4.2.1, H3: "Sailor uses the same data parallelism for each stage").
func (p Plan) DP() int {
	if len(p.Stages) == 0 {
		return 0
	}
	return len(p.Stages[0].Replicas)
}

// GPUCount returns the total number of GPUs the plan occupies.
func (p Plan) GPUCount() int {
	n := 0
	for _, s := range p.Stages {
		n += s.GPUCount()
	}
	return n
}

// Zones returns the distinct zones the plan touches, sorted by name.
func (p Plan) Zones() []Zone {
	seen := map[Zone]bool{}
	for _, s := range p.Stages {
		for _, r := range s.Replicas {
			seen[r.Zone] = true
		}
	}
	zs := make([]Zone, 0, len(seen))
	for z := range seen {
		zs = append(zs, z)
	}
	sort.Slice(zs, func(i, j int) bool { return zs[i].Name < zs[j].Name })
	return zs
}

// GPUTypes returns the distinct GPU types the plan uses, sorted.
func (p Plan) GPUTypes() []GPUType {
	seen := map[GPUType]bool{}
	for _, s := range p.Stages {
		for _, r := range s.Replicas {
			seen[r.GPU] = true
		}
	}
	ts := make([]GPUType, 0, len(seen))
	for t := range seen {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// Validate performs structural checks: at least one stage, uniform DP across
// stages, positive TP, contiguous non-overlapping layer coverage of
// totalLayers, and positive microbatch size.
func (p Plan) Validate(totalLayers int) error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("plan: no stages")
	}
	if p.MicroBatchSize <= 0 {
		return fmt.Errorf("plan: microbatch size %d must be positive", p.MicroBatchSize)
	}
	dp := len(p.Stages[0].Replicas)
	if dp == 0 {
		return fmt.Errorf("plan: stage 0 has no replicas")
	}
	next := 0
	for i, s := range p.Stages {
		if len(s.Replicas) != dp {
			return fmt.Errorf("plan: stage %d has DP %d, want %d (uniform per H3)", i, len(s.Replicas), dp)
		}
		if s.NumLayers <= 0 {
			return fmt.Errorf("plan: stage %d has %d layers", i, s.NumLayers)
		}
		if s.FirstLayer != next {
			return fmt.Errorf("plan: stage %d starts at layer %d, want %d", i, s.FirstLayer, next)
		}
		next = s.FirstLayer + s.NumLayers
		for j, r := range s.Replicas {
			if r.TP <= 0 {
				return fmt.Errorf("plan: stage %d replica %d has TP %d", i, j, r.TP)
			}
			if r.GPU == "" {
				return fmt.Errorf("plan: stage %d replica %d has empty GPU type", i, j)
			}
		}
	}
	if next != totalLayers {
		return fmt.Errorf("plan: stages cover %d layers, model has %d", next, totalLayers)
	}
	return nil
}

// String renders a compact human-readable description, e.g.
// "PP=2 DP=4 mbs=2 | s0 L0-11 [4xA100-40/tp4@us-central1-a] ...".
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PP=%d DP=%d mbs=%d", p.PP(), p.DP(), p.MicroBatchSize)
	for i, s := range p.Stages {
		fmt.Fprintf(&b, " | s%d L%d-%d ", i, s.FirstLayer, s.FirstLayer+s.NumLayers-1)
		// Group identical replicas for brevity.
		type key struct {
			g  GPUType
			tp int
			z  Zone
		}
		counts := map[key]int{}
		order := []key{}
		for _, r := range s.Replicas {
			k := key{r.GPU, r.TP, r.Zone}
			if counts[k] == 0 {
				order = append(order, k)
			}
			counts[k]++
		}
		parts := make([]string, 0, len(order))
		for _, k := range order {
			parts = append(parts, fmt.Sprintf("%dx%s/tp%d@%s", counts[k], k.g, k.tp, k.z.Name))
		}
		b.WriteString("[" + strings.Join(parts, " ") + "]")
	}
	return b.String()
}

// Objective selects what the planner optimizes (§4.2).
type Objective int

const (
	// MaxThroughput maximizes iterations per second.
	MaxThroughput Objective = iota
	// MinCost minimizes USD per iteration.
	MinCost
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaxThroughput:
		return "max-throughput"
	case MinCost:
		return "min-cost"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// ParseObjective is the inverse of Objective.String: it resolves the names
// CLIs and wire messages carry ("max-throughput", "min-cost") back to the
// typed objective.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case MaxThroughput.String():
		return MaxThroughput, nil
	case MinCost.String():
		return MinCost, nil
	}
	return MaxThroughput, fmt.Errorf("core: unknown objective %q (want %q or %q)",
		s, MaxThroughput, MinCost)
}

// Constraints bound the feasible plans. Zero values mean "unconstrained".
type Constraints struct {
	// MaxCostPerIter is a budget limit in USD per iteration (§4.2.3).
	MaxCostPerIter float64
	// MinThroughput is a floor in iterations per second (§5.2.4 scenario 1).
	MinThroughput float64
	// MaxIterTime is a ceiling in seconds per iteration.
	MaxIterTime float64
}

// Satisfied reports whether a (time, cost) point meets all constraints.
// iterTime is seconds per iteration, cost is USD per iteration.
func (c Constraints) Satisfied(iterTime, cost float64) bool {
	if c.MaxCostPerIter > 0 && cost > c.MaxCostPerIter {
		return false
	}
	if c.MinThroughput > 0 && iterTime > 0 && 1.0/iterTime < c.MinThroughput {
		return false
	}
	if c.MaxIterTime > 0 && iterTime > c.MaxIterTime {
		return false
	}
	return true
}

// Estimate is the simulator's evaluation of a plan (§4.3): iteration time,
// per-iteration monetary cost split into compute and communication, and the
// peak memory footprint of the most loaded worker.
type Estimate struct {
	IterTime       float64 // seconds per iteration
	ComputeCost    float64 // USD per iteration, resource-time
	EgressCost     float64 // USD per iteration, cross-zone/region transfer
	PeakMemory     int64   // bytes, max over workers
	PeakMemoryGPU  GPUType // GPU type of the most loaded worker
	FitsMemory     bool    // no worker exceeds its GPU capacity
	StageTimes     []float64
	StragglerStage int
}

// Throughput returns iterations per second (0 when IterTime is 0).
func (e Estimate) Throughput() float64 {
	if e.IterTime <= 0 {
		return 0
	}
	return 1.0 / e.IterTime
}

// Cost returns the total USD per iteration.
func (e Estimate) Cost() float64 { return e.ComputeCost + e.EgressCost }
