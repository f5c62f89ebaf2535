package baselines

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/profiler"
)

func lookupSpec(g core.GPUType) (hardware.GPUSpec, error) { return hardware.Lookup(g) }

func nodeShape(g core.GPUType) int { return hardware.DefaultNodeType(g).GPUsPerNode }

// timeModel is a parameterised iteration-time estimator. Every baseline's
// published model is an instance of it; the flags encode the documented
// structural omissions the paper's §3.2/C2 calls out.
type timeModel struct {
	cfg  model.Config
	prof *profiler.Profile
	net  *hardware.Network

	// theoreticalFLOPS derives layer times from datasheet peak FLOPS
	// instead of measured profiles (FlashFlex).
	theoreticalFLOPS bool
	// uniformGPU evaluates every worker with the first replica's GPU type
	// (homogeneous planners: Piper, Varuna, Galvatron, Aceso, Oobleck).
	uniformGPU bool
	// uniformBW uses the intra-zone link for every transfer, missing
	// heterogeneous/geo bandwidth (Metis and most others).
	uniformBW bool
	// averageStages uses the mean stage time instead of the straggler max
	// (AMP's heterogeneity-unaware steady state).
	averageStages bool
	// ignoreHead drops the output-projection/loss cost of the last stage.
	ignoreHead bool
	// ignoreUpdate drops the optimizer step.
	ignoreUpdate bool
	// commOnly ranks by communication time alone, ignoring compute
	// (DTFM's cost function).
	commOnly bool
}

// IterTime predicts seconds/iteration for a plan under the model's flags.
func (m timeModel) IterTime(plan core.Plan) (float64, error) {
	if err := plan.Validate(m.cfg.Layers); err != nil {
		return 0, err
	}
	nb := memory.NumMicrobatches(m.cfg, plan)
	if nb == 0 {
		return 0, fmt.Errorf("baseline estimator: degenerate plan")
	}
	p := plan.PP()
	dp := plan.DP()
	net := m.net
	if net == nil {
		net = hardware.DefaultNetwork()
	}

	uniType := plan.Stages[0].Replicas[0].GPU

	worstPipe := 0.0
	var sumStage, maxStage float64
	for k := 0; k < dp; k++ {
		fwd := make([]float64, p)
		bwd := make([]float64, p)
		comm := make([]float64, p-1)
		for i, st := range plan.Stages {
			r := st.Replicas[k]
			g := r.GPU
			if m.uniformGPU {
				g = uniType
			}
			f, b, err := m.layerTimes(g, plan.MicroBatchSize, r.TP)
			if err != nil {
				return 0, err
			}
			fwd[i] = float64(st.NumLayers) * f
			bwd[i] = float64(st.NumLayers) * b
			if i == p-1 && !m.ignoreHead && !m.theoreticalFLOPS {
				ht, err := m.prof.HeadTimingFor(g, plan.MicroBatchSize, r.TP)
				if err == nil {
					fwd[i] += ht.Fwd
					bwd[i] += ht.Bwd
				}
			}
			if i < p-1 {
				class := hardware.IntraZone
				if !m.uniformBW {
					class = net.Classify(r.Zone, plan.Stages[i+1].Replicas[k].Zone)
				}
				comm[i] = m.prof.NetFit(class).Eval(m.cfg.BoundaryActivationBytes(plan.MicroBatchSize))
			}
		}
		var t float64
		switch {
		case m.commOnly:
			// DTFM: total communication volume time only.
			for _, c := range comm {
				t += 2 * c * float64(nb)
			}
		case m.averageStages:
			mean := 0.0
			for i := 0; i < p; i++ {
				mean += fwd[i] + bwd[i]
			}
			mean /= float64(p)
			t = float64(nb-1)*mean + mean*float64(p)
			for _, c := range comm {
				t += 2 * c
			}
		default:
			var err error
			// Baselines expose comm fully (no overlap modelling, a C2 flaw).
			t, err = pipeline.AnalyticTime(fwd, bwd, comm, nb, 0)
			if err != nil {
				return 0, err
			}
		}
		if t > worstPipe {
			worstPipe = t
		}
		for i := 0; i < p; i++ {
			v := fwd[i] + bwd[i]
			sumStage += v
			if v > maxStage {
				maxStage = v
			}
		}
	}

	total := worstPipe
	// Gradient sync: all models except commOnly add a ring estimate; the
	// uniformBW flaw prices geo rings at intra-zone speed.
	if dp > 1 {
		syncMax := 0.0
		for _, st := range plan.Stages {
			minTP := st.Replicas[0].TP
			worst := hardware.IntraZone
			for i := 0; i < dp && !m.uniformBW; i++ {
				for j := i + 1; j < dp; j++ {
					if c := net.Classify(st.Replicas[i].Zone, st.Replicas[j].Zone); c > worst {
						worst = c
					}
				}
			}
			for _, r := range st.Replicas {
				if r.TP < minTP {
					minTP = r.TP
				}
			}
			bytes := int64(st.NumLayers) * m.cfg.GradBytesPerLayer(minTP)
			s := collective.RingAllReduce(collective.FromFit(m.prof.NetFit(worst)), bytes, dp)
			if m.commOnly {
				total += s // DTFM counts DP comm in its objective
				continue
			}
			if s > syncMax {
				syncMax = s
			}
		}
		total += syncMax
	}
	if !m.ignoreUpdate && !m.theoreticalFLOPS && !m.commOnly {
		upd := 0.0
		for _, st := range plan.Stages {
			for _, r := range st.Replicas {
				g := r.GPU
				if m.uniformGPU {
					g = uniType
				}
				lt, err := m.prof.LayerTimingFor(g, plan.MicroBatchSize, r.TP)
				if err != nil {
					continue
				}
				if u := float64(st.NumLayers) * lt.Update; u > upd {
					upd = u
				}
			}
		}
		total += upd
	}
	return total, nil
}

// layerTimes returns per-layer fwd/bwd seconds under the model's flags.
func (m timeModel) layerTimes(g core.GPUType, mbs, tp int) (float64, float64, error) {
	if m.theoreticalFLOPS {
		spec, err := lookupSpec(g)
		if err != nil {
			return 0, 0, err
		}
		f := m.cfg.LayerFwdFLOPs(mbs) / float64(tp) / (spec.PeakTFLOPS * 1e12)
		return f, 2 * f, nil
	}
	lt, err := m.prof.LayerTimingFor(g, mbs, tp)
	if err != nil {
		return 0, 0, err
	}
	return lt.Fwd, lt.Bwd, nil
}

// memModel is the parameterised peak-memory estimator; flags encode the
// omissions Figure 3 exposes.
type memModel struct {
	cfg model.Config
	// none: the baseline has no memory model at all (AMP, DTFM).
	none bool
	// ignoreOptimizer drops the 12 bytes/param Adam states (Varuna, Oobleck).
	ignoreOptimizer bool
	// ignoreComm drops gradient buckets and p2p staging buffers.
	ignoreComm bool
	// uniformStages assumes one in-flight microbatch everywhere, ignoring
	// the 1F1B pyramid (Piper, FlashFlex).
	uniformStages bool
	// ignoreLogits drops the last stage's vocab-sized loss buffer.
	ignoreLogits bool
}

// PeakMemory predicts the peak bytes of the most loaded worker, or ok=false
// when the model is absent.
func (m memModel) PeakMemory(plan core.Plan) (int64, bool) {
	if m.none {
		return 0, false
	}
	if plan.PP() == 0 || plan.DP() == 0 {
		return 0, true
	}
	nb := memory.NumMicrobatches(m.cfg, plan)
	var peak int64
	for si, st := range plan.Stages {
		for _, r := range st.Replicas {
			if v := m.worker(plan, si, st, r, nb); v > peak {
				peak = v
			}
		}
	}
	return peak, true
}

func (m memModel) worker(plan core.Plan, si int, st core.StagePlan, r core.StageReplica, nb int) int64 {
	pp := plan.PP()
	first, last := si == 0, si == pp-1
	params := m.cfg.StageParams(st.NumLayers, r.TP, first, last)
	total := params * (memory.BytesWeights + memory.BytesGradients)
	if !m.ignoreOptimizer {
		total += params * memory.BytesOptimizer
	}
	if !m.ignoreComm {
		total += params * memory.BytesGradients
		if pp > 1 {
			total += 4 * m.cfg.BoundaryActivationBytes(plan.MicroBatchSize)
		}
	}
	inflight := pp - si
	if nb > 0 && inflight > nb {
		inflight = nb
	}
	if inflight < 1 || m.uniformStages {
		inflight = 1
	}
	perMB := m.cfg.ActivationBytesPerLayer(plan.MicroBatchSize, r.TP) * int64(st.NumLayers)
	if last && !m.ignoreLogits {
		perMB += 2 * int64(plan.MicroBatchSize) * int64(m.cfg.SeqLen) * int64(m.cfg.Vocab) / int64(r.TP)
	}
	return total + int64(inflight)*perMB
}

// estimator couples a baseline's time and memory models.
type estimator struct {
	tm timeModel
	mm memModel
}

func (e estimator) IterTime(plan core.Plan) (float64, error) { return e.tm.IterTime(plan) }
func (e estimator) PeakMemory(plan core.Plan) (int64, bool)  { return e.mm.PeakMemory(plan) }

// fitsOwnModel applies a baseline's own (possibly absent or flawed) memory
// filter: plans pass when the model is absent or predicts a fit — which is
// exactly how under-estimators leak OOM plans into deployment.
func fitsOwnModel(e Estimator, plan core.Plan) bool {
	peak, ok := e.PeakMemory(plan)
	if !ok {
		return true // no model: everything looks fine
	}
	for _, st := range plan.Stages {
		for _, r := range st.Replicas {
			spec, err := lookupSpec(r.GPU)
			if err != nil {
				return false
			}
			if peak+memory.CapacityReserve > spec.MemoryBytes {
				return false
			}
		}
	}
	return true
}
