// Package groundtruth is the measurement substrate of this reproduction: a
// high-fidelity discrete-event execution of a training plan that stands in
// for the paper's real clusters.
//
// Where the analytical simulator (internal/sim) uses closed-form 1F1B
// timing over fitted network coefficients, this engine executes the exact
// 1F1B dependency graph op by op over concrete links and adds the
// second-order effects real systems exhibit and estimators omit:
// per-kernel jitter, NIC caps, link contention between concurrent
// data-parallel rings, allocator fragmentation and transient workspace on
// peak memory, and a fixed per-iteration framework overhead.
//
// Estimation-error experiments (Figures 3, 5, 6) compare each planner's
// estimator against Measure; planner-comparison experiments (Figures 7-14)
// score every planner's chosen plan with Measure.
package groundtruth

import (
	"fmt"
	"hash/fnv"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// Engine measures plans for one training job on the modelled hardware.
type Engine struct {
	Cfg     model.Config
	Net     *hardware.Network
	Pricing *hardware.Pricing
	// Seed drives the deterministic jitter so measurements are repeatable.
	Seed uint64
	// JitterFrac is the per-kernel relative jitter magnitude (default 3%).
	JitterFrac float64
}

// New returns an engine with default hardware models.
func New(cfg model.Config) *Engine {
	return &Engine{
		Cfg:        cfg,
		Net:        hardware.DefaultNetwork(),
		Pricing:    hardware.DefaultPricing(),
		Seed:       1,
		JitterFrac: 0.03,
	}
}

// Fragmentation and fixed overheads of the "real" stack.
const (
	fragmentationFactor = 1.07  // PyTorch CUDA allocator fragmentation
	perIterOverheadSec  = 0.015 // dataloader, hooks, python driver
)

// Measure executes one training iteration of the plan and returns what a
// testbed run would report: wall-clock iteration time, billed cost, and the
// true peak memory of the most loaded worker.
func (e *Engine) Measure(plan core.Plan) (core.Estimate, error) {
	if err := plan.Validate(e.Cfg.Layers); err != nil {
		return core.Estimate{}, err
	}
	nb := memory.NumMicrobatches(e.Cfg, plan)
	if nb == 0 {
		return core.Estimate{}, fmt.Errorf("groundtruth: degenerate plan")
	}
	p := plan.PP()
	dp := plan.DP()

	sched, err := pipeline.OneFOneB(p, nb)
	if err != nil {
		return core.Estimate{}, err
	}

	// Execute every pipeline's dependency graph; iteration waits for the
	// slowest one (the straggler pipeline).
	maxPipe := 0.0
	stageTimes := make([]float64, p)
	for k := 0; k < dp; k++ {
		fwdBase := make([]float64, p)
		bwdBase := make([]float64, p)
		comm := make([]float64, p-1)
		for i, st := range plan.Stages {
			r := st.Replicas[k]
			spec, lerr := hardware.Lookup(r.GPU)
			if lerr != nil {
				return core.Estimate{}, lerr
			}
			lt := profiler.BaseLayerTiming(spec, e.Cfg, plan.MicroBatchSize, r.TP)
			fwdBase[i] = float64(st.NumLayers) * lt.Fwd
			bwdBase[i] = float64(st.NumLayers) * lt.Bwd
			if i == p-1 {
				ht := profiler.BaseHeadTiming(spec, e.Cfg, plan.MicroBatchSize, r.TP)
				fwdBase[i] += ht.Fwd
				bwdBase[i] += ht.Bwd
			}
			if i < p-1 {
				next := plan.Stages[i+1].Replicas[k]
				link := e.linkBetween(r, next)
				comm[i] = link.TransferTime(e.Cfg.BoundaryActivationBytes(plan.MicroBatchSize))
			}
			if t := fwdBase[i] + bwdBase[i]; t > stageTimes[i] {
				stageTimes[i] = t
			}
		}
		kk := k
		makespan, merr := pipeline.Makespan(sched,
			func(stage, mb int) float64 {
				return fwdBase[stage] * e.jitter(kk, stage, mb, 0)
			},
			func(stage, mb int) float64 {
				return bwdBase[stage] * e.jitter(kk, stage, mb, 1)
			},
			func(boundary int) float64 { return comm[boundary] },
		)
		if merr != nil {
			return core.Estimate{}, merr
		}
		if makespan > maxPipe {
			maxPipe = makespan
		}
	}

	sync := e.syncTime(plan, dp)
	update := e.updateTime(plan)
	iter := maxPipe + sync + update + perIterOverheadSec

	peak, peakGPU, fits := e.peakMemory(plan, nb)

	comp := 0.0
	for _, st := range plan.Stages {
		for _, r := range st.Replicas {
			comp += e.Pricing.ComputeUSD(r.GPU, r.GPUCount(), iter)
		}
	}
	egress := e.egressUSD(plan, nb)

	straggler := 0
	for i, v := range stageTimes {
		if v > stageTimes[straggler] {
			straggler = i
		}
	}
	return core.Estimate{
		IterTime:       iter,
		ComputeCost:    comp,
		EgressCost:     egress,
		PeakMemory:     peak,
		PeakMemoryGPU:  peakGPU,
		FitsMemory:     fits,
		StageTimes:     stageTimes,
		StragglerStage: straggler,
	}, nil
}

// linkBetween resolves the concrete link between two replicas, capping by
// the slower NIC.
func (e *Engine) linkBetween(a, b core.StageReplica) hardware.LinkSpec {
	l := e.Net.Link(a.Zone, b.Zone)
	na := hardware.DefaultNodeType(a.GPU)
	nbt := hardware.DefaultNodeType(b.GPU)
	return hardware.MinWithNIC(l, na.NICGbps, nbt.NICGbps)
}

// syncTime measures the gradient all-reduce phase: every stage ring runs
// concurrently, but rings sharing a cross-region path contend for its
// bandwidth, so crossing rings are scaled by the number of concurrent
// crossers — an effect the analytical simulator does not model.
func (e *Engine) syncTime(plan core.Plan, dp int) float64 {
	if dp <= 1 {
		return 0
	}
	crossRegion := 0
	times := make([]float64, 0, len(plan.Stages))
	crossing := make([]bool, len(plan.Stages))
	for si, st := range plan.Stages {
		minTP := st.Replicas[0].TP
		worst := hardware.LinkSpec{Class: hardware.IntraZone}
		worstSet := false
		for i := 0; i < dp; i++ {
			if st.Replicas[i].TP < minTP {
				minTP = st.Replicas[i].TP
			}
			for j := i + 1; j < dp; j++ {
				l := e.linkBetween(st.Replicas[i], st.Replicas[j])
				if !worstSet || l.Class > worst.Class || (l.Class == worst.Class && l.GBs < worst.GBs) {
					worst = l
					worstSet = true
				}
			}
		}
		if !worstSet {
			worst = e.linkBetween(st.Replicas[0], st.Replicas[0])
		}
		if worst.Class == hardware.InterRegion {
			crossRegion++
			crossing[si] = true
		}
		bytes := int64(st.NumLayers) * e.Cfg.GradBytesPerLayer(minTP)
		times = append(times, collective.RingAllReduce(worst, bytes, dp))
	}
	maxT := 0.0
	for si, t := range times {
		if crossing[si] && crossRegion > 1 {
			t *= float64(crossRegion)
		}
		// Stragglers desynchronise ring entry; jitter the ring too.
		t *= e.jitter(1000, si, 0, 2)
		if t > maxT {
			maxT = t
		}
	}
	return maxT
}

func (e *Engine) updateTime(plan core.Plan) float64 {
	u := 0.0
	for _, st := range plan.Stages {
		for _, r := range st.Replicas {
			spec, err := hardware.Lookup(r.GPU)
			if err != nil {
				continue
			}
			lt := profiler.BaseLayerTiming(spec, e.Cfg, plan.MicroBatchSize, r.TP)
			if t := float64(st.NumLayers) * lt.Update; t > u {
				u = t
			}
		}
	}
	return u
}

// peakMemory is the true footprint: the analytical per-worker accounting
// plus allocator fragmentation and the transient workspace of the largest
// single-layer computation (real allocators hold both the retained
// activations and the in-progress buffers).
func (e *Engine) peakMemory(plan core.Plan, nb int) (int64, core.GPUType, bool) {
	var peak int64
	var peakGPU core.GPUType
	fits := true
	for si, st := range plan.Stages {
		for _, r := range st.Replicas {
			spec, err := hardware.Lookup(r.GPU)
			if err != nil {
				fits = false
				continue
			}
			w := memory.WorkerShape{
				Layers: st.NumLayers, StageIdx: si, PP: plan.PP(), TP: r.TP,
				MicroBS: plan.MicroBatchSize, NumMicro: nb,
				FirstStg: si == 0, LastStg: si == plan.PP()-1,
			}
			base := memory.WorkerFootprint(e.Cfg, w).Total()
			// Transient workspace of the in-progress layer.
			transient := e.Cfg.ActivationBytesPerLayer(plan.MicroBatchSize, r.TP) * 3 / 2
			total := int64(float64(base)*fragmentationFactor) + transient
			if total > peak {
				peak, peakGPU = total, r.GPU
			}
			if total+memory.CapacityReserve > spec.MemoryBytes {
				fits = false
			}
		}
	}
	return peak, peakGPU, fits
}

// egressUSD bills the same traffic the simulator bills; cloud metering is
// exact, so the two agree by construction.
func (e *Engine) egressUSD(plan core.Plan, nb int) float64 {
	s := &sim.Simulator{Cfg: e.Cfg, Net: e.Net, Pricing: e.Pricing}
	return s.EgressUSD(plan, nb)
}

// jitter returns a deterministic multiplicative factor ~ 1 + U(-j, +j),
// keyed by (pipeline, stage, microbatch, phase).
func (e *Engine) jitter(pipe, stage, mb, phase int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d", e.Seed, pipe, stage, mb, phase)
	u := float64(h.Sum64()%(1<<20))/float64(1<<20)*2 - 1 // [-1, 1)
	f := 1 + e.JitterFrac*u
	if f < 0.5 {
		f = 0.5
	}
	return f
}
