// Package sim implements the Sailor simulator (§4.3): given a training job
// and a parallelization plan over (possibly heterogeneous, geo-distributed)
// resources, it estimates iteration time, per-worker memory footprint, and
// monetary cost per iteration, consuming only profiler output — per-layer
// timing tables and fitted network coefficients — plus the pricing model.
//
// The estimates drive the planner; their accuracy against the ground-truth
// engine is what Figures 5 and 6 evaluate.
package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/profiler"
)

// Simulator evaluates plans for one training job. The exported fields are
// configuration; the unexported ones are lazily built lookup caches (see
// tables.go), so a Simulator should not be copied after first use and
// Prof/Net/Pricing should not be mutated once estimates have been served.
type Simulator struct {
	Cfg     model.Config
	Prof    *profiler.Profile
	Net     *hardware.Network
	Pricing *hardware.Pricing

	// tbl is the dense (gpu, tp, mbs) timing table, built on first use;
	// rings memoizes gradient-sync ring evaluations. Both hold pure
	// functions of the profile, so estimates are unchanged — only cheaper.
	tbl   atomic.Pointer[timingTable]
	rings syncCache
}

// New constructs a simulator with default network and pricing models.
func New(cfg model.Config, prof *profiler.Profile) *Simulator {
	return &Simulator{
		Cfg:     cfg,
		Prof:    prof,
		Net:     hardware.DefaultNetwork(),
		Pricing: hardware.DefaultPricing(),
	}
}

// Estimate evaluates a plan end to end (§4.3): per-pipeline 1F1B time with
// straggler effects, gradient-synchronization time over the slowest DP link,
// optimizer update, memory validity, and the Ccomp + Ccomm cost split.
func (s *Simulator) Estimate(plan core.Plan) (core.Estimate, error) {
	if err := plan.Validate(s.Cfg.Layers); err != nil {
		return core.Estimate{}, err
	}
	nb := memory.NumMicrobatches(s.Cfg, plan)
	if nb == 0 {
		return core.Estimate{}, fmt.Errorf("sim: degenerate plan (no microbatches)")
	}
	p := plan.PP()
	dp := plan.DP()

	// Per-pipeline 1F1B time; pipeline k is the chain of replica k of every
	// stage. Track the slowest (straggler) pipeline. The per-pipeline
	// vectors live in pooled scratch, and consecutive pipelines with
	// identical timings (the common homogeneous case — every pipeline is
	// the same chain) reuse the previous makespan instead of re-evaluating
	// the DAG: identical inputs give an identical result by construction.
	sc := estScratchPool.Get().(*estScratch)
	defer estScratchPool.Put(sc)
	maxPipe := 0.0
	stageTimes := make([]float64, p)
	stragglerStage := 0
	prevOK := false
	prevT := 0.0
	for k := 0; k < dp; k++ {
		fwd := sized(&sc.fwd, p)
		bwd := sized(&sc.bwd, p)
		comm := sized(&sc.comm, p-1)
		for i, st := range plan.Stages {
			r := st.Replicas[k]
			lt, err := s.layerTiming(r.GPU, plan.MicroBatchSize, r.TP)
			if err != nil {
				return core.Estimate{}, fmt.Errorf("sim: stage %d: %w", i, err)
			}
			fwd[i] = float64(st.NumLayers) * lt.Fwd
			bwd[i] = float64(st.NumLayers) * lt.Bwd
			if i == p-1 {
				ht, err := s.headTiming(r.GPU, plan.MicroBatchSize, r.TP)
				if err != nil {
					return core.Estimate{}, err
				}
				fwd[i] += ht.Fwd
				bwd[i] += ht.Bwd
			}
			if i < p-1 {
				next := plan.Stages[i+1].Replicas[k]
				class := s.Net.Classify(r.Zone, next.Zone)
				fit := s.Prof.NetFit(class)
				comm[i] = collective.P2P(collective.FromFit(fit), s.Cfg.BoundaryActivationBytes(plan.MicroBatchSize))
			}
		}
		var t float64
		if prevOK && floatsEqual(fwd, sc.pfwd) && floatsEqual(bwd, sc.pbwd) && floatsEqual(comm, sc.pcomm) {
			t = prevT
		} else {
			var err error
			t, err = s.pipelineTime(fwd, bwd, comm, nb, &sc.mk)
			if err != nil {
				return core.Estimate{}, err
			}
			sc.pfwd = append(sc.pfwd[:0], fwd...)
			sc.pbwd = append(sc.pbwd[:0], bwd...)
			sc.pcomm = append(sc.pcomm[:0], comm...)
			prevOK, prevT = true, t
		}
		if t > maxPipe {
			maxPipe = t
		}
		for i := range stageTimes {
			if v := fwd[i] + bwd[i]; v > stageTimes[i] {
				stageTimes[i] = v
				if v > stageTimes[stragglerStage] {
					stragglerStage = i
				}
			}
		}
	}
	for i, v := range stageTimes {
		if v > stageTimes[stragglerStage] {
			stragglerStage = i
		}
	}

	// Gradient synchronization: per stage, a ring all-reduce across the DP
	// replicas over the slowest link between any two of them (§4.3 computes
	// the synchronization bottleneck per stage and takes the max).
	sync := 0.0
	for _, st := range plan.Stages {
		t := s.stageSyncTime(st, dp)
		if t > sync {
			sync = t
		}
	}

	// Optimizer update: slowest worker.
	update := 0.0
	for _, st := range plan.Stages {
		for _, r := range st.Replicas {
			lt, err := s.layerTiming(r.GPU, plan.MicroBatchSize, r.TP)
			if err != nil {
				return core.Estimate{}, err
			}
			if u := float64(st.NumLayers) * lt.Update; u > update {
				update = u
			}
		}
	}

	iter := maxPipe + sync + update

	peak, peakGPU, fits, err := memory.Check(s.Cfg, plan)
	if err != nil {
		return core.Estimate{}, err
	}

	comp := 0.0
	for _, st := range plan.Stages {
		for _, r := range st.Replicas {
			comp += s.Pricing.ComputeUSD(r.GPU, r.GPUCount(), iter)
		}
	}
	egress := s.EgressUSD(plan, nb)

	return core.Estimate{
		IterTime:       iter,
		ComputeCost:    comp,
		EgressCost:     egress,
		PeakMemory:     peak,
		PeakMemoryGPU:  peakGPU,
		FitsMemory:     fits,
		StageTimes:     stageTimes,
		StragglerStage: stragglerStage,
	}, nil
}

// pipelineTime evaluates one pipeline's 1F1B iteration time. For short
// iterations it evaluates the dependency DAG exactly; for long ones it
// evaluates a 4P-microbatch prefix and extrapolates the steady-state period
// from the last 2P microbatches. This captures the window-limited exposure
// of p2p transfers near the pipeline tail — the straggler effect closed
// forms with a fixed overlap factor miss (the paper's simulator reaches
// ~6% error where closed-form baselines reach 10-20%, Figure 5b).
//
// Schedules come from the process-wide cache and the DAG evaluation runs in
// caller scratch (pipeline.MakespanStageCosts executes the identical op
// order as pipeline.Makespan), so the value is bit-identical to the
// original map-and-closure evaluation at a fraction of the cost.
func (s *Simulator) pipelineTime(fwd, bwd, comm []float64, nb int, mk *pipeline.Scratch) (float64, error) {
	p := len(fwd)
	short := 4 * p
	if nb <= short {
		sched, err := pipeline.Cached1F1B(p, nb)
		if err != nil {
			return 0, err
		}
		return pipeline.MakespanStageCosts(sched, fwd, bwd, comm, mk)
	}
	sched1, err := pipeline.Cached1F1B(p, short)
	if err != nil {
		return 0, err
	}
	t1, err := pipeline.MakespanStageCosts(sched1, fwd, bwd, comm, mk)
	if err != nil {
		return 0, err
	}
	half := 2 * p
	sched2, err := pipeline.Cached1F1B(p, half)
	if err != nil {
		return 0, err
	}
	t2, err := pipeline.MakespanStageCosts(sched2, fwd, bwd, comm, mk)
	if err != nil {
		return 0, err
	}
	period := (t1 - t2) / float64(short-half)
	return t1 + float64(nb-short)*period, nil
}

// floatsEqual reports exact element-wise equality.
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// stageSyncTime models the data-parallel gradient all-reduce for one stage:
// ring over the D replicas, shard size set by the coarsest TP sharding,
// slowest pairwise link bounding the ring step time. The worst link class
// is found over distinct zones (same max as the all-pairs scan — Classify
// of a zone with itself is IntraZone, the floor) and the ring evaluation
// is memoized per (class, bytes, dp).
func (s *Simulator) stageSyncTime(st core.StagePlan, dp int) float64 {
	if dp <= 1 {
		return 0
	}
	minTP := st.Replicas[0].TP
	for _, r := range st.Replicas {
		if r.TP < minTP {
			minTP = r.TP
		}
	}
	bytes := int64(st.NumLayers) * s.Cfg.GradBytesPerLayer(minTP)
	worst := hardware.IntraZone
	z0 := st.Replicas[0].Zone
	uniform := true
	for i := 1; i < dp; i++ {
		if st.Replicas[i].Zone != z0 {
			uniform = false
			break
		}
	}
	if !uniform {
		for i := 0; i < dp; i++ {
			for j := i + 1; j < dp; j++ {
				c := s.Net.Classify(st.Replicas[i].Zone, st.Replicas[j].Zone)
				if c > worst {
					worst = c
				}
			}
		}
	}
	return s.ringTime(worst, bytes, dp)
}

// ringTime evaluates (and memoizes) one ring all-reduce at a link class.
func (s *Simulator) ringTime(class hardware.LinkClass, bytes int64, dp int) float64 {
	k := syncCacheKey{class: int8(class), dp: int32(dp), bytes: bytes}
	if v, ok := s.rings.get(k); ok {
		return v
	}
	fit := s.Prof.NetFit(class)
	v := collective.RingAllReduce(collective.FromFit(fit), bytes, dp)
	s.rings.put(k, v)
	return v
}

// EgressUSD bills cross-zone and cross-region traffic per iteration:
// pipeline activations/gradients on boundaries whose endpoints differ in
// zone, and data-parallel all-reduce chunks on rings spanning zones.
// Exported because the ground-truth engine bills identical traffic (cloud
// metering is exact).
func (s *Simulator) EgressUSD(plan core.Plan, nb int) float64 {
	total := 0.0
	p := plan.PP()
	dp := plan.DP()
	// Pipeline-parallel traffic.
	for i := 0; i < p-1; i++ {
		for k := 0; k < dp; k++ {
			a := plan.Stages[i].Replicas[k]
			b := plan.Stages[i+1].Replicas[k]
			class := s.Net.Classify(a.Zone, b.Zone)
			if class < hardware.InterZone {
				continue
			}
			bytes := 2 * s.Cfg.BoundaryActivationBytes(plan.MicroBatchSize) * int64(nb)
			total += s.Pricing.EgressUSD(class, bytes)
		}
	}
	// Data-parallel traffic. Distinct zones are collected in
	// first-appearance order into pooled scratch — the worst-class max and
	// the crossing count are order-insensitive, so this matches the
	// original map-based grouping while keeping the hot path off the heap.
	sc := estScratchPool.Get().(*estScratch)
	defer estScratchPool.Put(sc)
	for _, st := range plan.Stages {
		zones := sc.zones[:0]
		zoneN := sc.zoneN[:0]
		minTP := st.Replicas[0].TP
		for _, r := range st.Replicas {
			found := false
			for i, z := range zones {
				if z == r.Zone {
					zoneN[i]++
					found = true
					break
				}
			}
			if !found {
				zones = append(zones, r.Zone)
				zoneN = append(zoneN, 1)
			}
			if r.TP < minTP {
				minTP = r.TP
			}
		}
		sc.zones, sc.zoneN = zones, zoneN
		if len(zones) <= 1 {
			continue
		}
		worst := hardware.IntraZone
		for _, za := range zones {
			for _, zb := range zones {
				if c := s.Net.Classify(za, zb); c > worst {
					worst = c
				}
			}
		}
		bytes := int64(st.NumLayers) * s.Cfg.GradBytesPerLayer(minTP)
		cross := collective.AllReduceEgressBytes(bytes, dp, zoneN)
		total += s.Pricing.EgressUSD(worst, cross)
	}
	return total
}

// StageComputeTimeWith returns the per-microbatch fwd+bwd time of one
// replica executing `layers` blocks, the planner's time_for_stage building
// block. The planner always passes recompute=false; the argument (a forward
// replay during backward) stays only for the benchmark module's wrapper.
func (s *Simulator) StageComputeTimeWith(g core.GPUType, tp, mbs, layers int, last, recompute bool) (float64, error) {
	lt, err := s.layerTiming(g, mbs, tp)
	if err != nil {
		return 0, err
	}
	t := float64(layers) * (lt.Fwd + lt.Bwd)
	if recompute {
		t += float64(layers) * lt.Fwd
	}
	if last {
		ht, err := s.headTiming(g, mbs, tp)
		if err != nil {
			return 0, err
		}
		t += ht.Fwd + ht.Bwd
	}
	return t, nil
}

// GPUHourUSD prices one GPU-hour of a type, a stage-level hook for the
// planner's DP (cost_for_stage in Listing 1).
func (s *Simulator) GPUHourUSD(g core.GPUType) float64 {
	return s.Pricing.GPUHourUSD(g)
}

// DPSyncTime estimates a within-region data-parallel gradient all-reduce of
// bytes over d replicas (the planner scores DP groups at the inter-zone
// fit per H5/H6).
func (s *Simulator) DPSyncTime(bytes int64, d int) float64 {
	return s.ringTime(hardware.InterZone, bytes, d)
}
