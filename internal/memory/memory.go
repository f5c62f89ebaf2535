// Package memory implements Sailor's per-worker memory-footprint estimator
// (§4.3): M_peak = M_model + M_activation, computed per worker (not per
// stage), accounting for all resident sources — parameter copies, gradients,
// optimizer states, communication buffers, and the 1F1B in-flight activation
// pyramid.
//
// Prior planners omit parts of this accounting (Figure 3); the baseline
// implementations in internal/baselines reproduce those omissions with their
// own formulas. This package is the accurate one.
package memory

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
)

// Mixed-precision Adam byte costs per parameter (ZeRO-Infinity accounting
// [46]): bf16 weights + bf16 gradients + fp32 master copy + fp32 momentum +
// fp32 variance.
const (
	BytesWeights   = 2
	BytesGradients = 2
	BytesOptimizer = 12
)

// Breakdown itemises a worker's resident memory in bytes.
type Breakdown struct {
	Weights         int64
	Gradients       int64
	OptimizerStates int64
	CommBuffers     int64
	Activations     int64
}

// Total returns the summed footprint.
func (b Breakdown) Total() int64 {
	return b.Weights + b.Gradients + b.OptimizerStates + b.CommBuffers + b.Activations
}

// WorkerShape identifies one worker's slice of the job for footprint
// purposes: which stage it serves, the stage's layer count, its TP degree,
// and the pipeline geometry.
type WorkerShape struct {
	Layers   int // transformer blocks in this stage
	StageIdx int // 0-based pipeline stage index
	PP       int // pipeline depth
	TP       int
	MicroBS  int
	NumMicro int // microbatches per pipeline per iteration
	FirstStg bool
	LastStg  bool
}

// WorkerFootprint estimates the peak resident bytes for one worker.
func WorkerFootprint(cfg model.Config, w WorkerShape) Breakdown {
	params := cfg.StageParams(w.Layers, w.TP, w.FirstStg, w.LastStg)
	var b Breakdown
	b.Weights = params * BytesWeights
	b.Gradients = params * BytesGradients
	b.OptimizerStates = params * BytesOptimizer

	// Communication buffers: a gradient bucket for the DP all-reduce
	// (mirrors the gradient size) plus send/recv staging for pipeline
	// activations in both directions.
	b.CommBuffers = params * BytesGradients
	if w.PP > 1 {
		b.CommBuffers += 4 * cfg.BoundaryActivationBytes(w.MicroBS)
	}

	// 1F1B keeps min(PP - stage, NumMicro) microbatches in flight on stage
	// `stage`; each retains the activations of every layer it owns.
	inflight := w.PP - w.StageIdx
	if w.NumMicro > 0 && inflight > w.NumMicro {
		inflight = w.NumMicro
	}
	if inflight < 1 {
		inflight = 1
	}
	perMB := cfg.ActivationBytesPerLayer(w.MicroBS, w.TP) * int64(w.Layers)
	if w.LastStg {
		// Logits buffer for the loss: mbs * seq * vocab in half precision,
		// sharded by TP.
		perMB += 2 * int64(w.MicroBS) * int64(cfg.SeqLen) * int64(cfg.Vocab) / int64(w.TP)
	}
	b.Activations = int64(inflight) * perMB
	return b
}

// CapacityReserve is the per-GPU memory unavailable to the framework: CUDA
// context, NCCL buffers, allocator reserve. The real-system figures it via
// profiling; we use a representative constant.
const CapacityReserve = int64(900) << 20

// SafetyFactor pads validity checks against allocator fragmentation and
// transient workspace (roughly +10% at peak on real allocators). Estimates
// themselves are unpadded — only the fits/OOM decision is conservative, so
// the planner never deploys borderline plans.
const SafetyFactor = 1.10

// Fits is the shared validity rule: a worker footprint fits a GPU when the
// padded total plus the fixed reserve stays within capacity.
func Fits(total, capacity int64) bool {
	return int64(float64(total)*SafetyFactor)+CapacityReserve <= capacity
}

// Check evaluates every worker of a plan against its GPU capacity.
// It returns the peak worker footprint, the GPU type hosting it, and
// whether all workers fit.
func Check(cfg model.Config, plan core.Plan) (peak int64, peakGPU core.GPUType, fits bool, err error) {
	if plan.DP() == 0 || plan.PP() == 0 {
		return 0, "", false, fmt.Errorf("memory: empty plan")
	}
	nb := NumMicrobatches(cfg, plan)
	fits = true
	for si, s := range plan.Stages {
		for _, r := range s.Replicas {
			spec, lerr := hardware.Lookup(r.GPU)
			if lerr != nil {
				return 0, "", false, lerr
			}
			w := WorkerShape{
				Layers: s.NumLayers, StageIdx: si, PP: plan.PP(), TP: r.TP,
				MicroBS: plan.MicroBatchSize, NumMicro: nb,
				FirstStg: si == 0, LastStg: si == plan.PP()-1,
			}
			total := WorkerFootprint(cfg, w).Total()
			if total > peak {
				peak, peakGPU = total, r.GPU
			}
			if !Fits(total, spec.MemoryBytes) {
				fits = false
			}
		}
	}
	return peak, peakGPU, fits, nil
}

// MinTP returns the minimum tensor-parallel degree of GPU type g that fits
// a stage of `layers` blocks at the given microbatch size, with nb
// microbatches per pipeline counted in flight as Check counts them —
// heuristic H2. It returns 0 when no degree up to the node size fits; every
// larger degree fits too. The result is independent of availability; the
// planner asks once per stage and GPU type per DP-degree scan.
func MinTP(cfg model.Config, g core.GPUType, layers, stageIdx, pp, mbs, nb int) int {
	spec, err := hardware.Lookup(g)
	if err != nil {
		return 0
	}
	node := hardware.DefaultNodeType(g)
	for tp := 1; tp <= node.GPUsPerNode; tp *= 2 {
		w := WorkerShape{
			Layers: layers, StageIdx: stageIdx, PP: pp, TP: tp,
			MicroBS: mbs, NumMicro: nb,
			FirstStg: stageIdx == 0, LastStg: stageIdx == pp-1,
		}
		if Fits(WorkerFootprint(cfg, w).Total(), spec.MemoryBytes) {
			return tp
		}
	}
	return 0
}

// NumMicrobatches returns how many microbatches each pipeline processes per
// iteration: ceil(gbs / (dp * mbs)). The simulator, the ground truth and the
// baselines run this many, so the in-flight activations Check counts match
// the schedule the time models execute.
func NumMicrobatches(cfg model.Config, plan core.Plan) int {
	return Microbatches(cfg.GlobalBatch, plan.DP(), plan.MicroBatchSize)
}

// Microbatches is ceil(gbs / (dp * mbs)), the microbatches each of dp
// pipelines runs per iteration at microbatch size mbs; 0 when dp or mbs is.
// The planner's DP counts with it too, so what it weighs is what the plan
// it materialises runs.
func Microbatches(gbs, dp, mbs int) int {
	if dp == 0 || mbs == 0 {
		return 0
	}
	per := dp * mbs
	return (gbs + per - 1) / per
}
