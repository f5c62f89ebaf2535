package baselines

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

// gridRank enumerates homogeneous (pp, tp, dp, mbs) plans for one GPU type,
// filters them through the baseline's own memory model, and sorts by the
// baseline's own time estimate. It is the shared engine behind Piper,
// Varuna, Galvatron and Oobleck, which differ in the grids they sweep and
// the estimator flaws they carry.
func gridRank(cfg model.Config, e Estimator, t vmTopology, g core.GPUType,
	pps, tps, mbss []int, maxPP int, deadline time.Time, planFn func(pp, dp, tp, mbs int) (core.Plan, bool)) []Candidate {

	totalGPUs := t.totalNodes(g) * nodeShape(g)
	var cands []Candidate
	for _, pp := range pps {
		if pp > maxPP || pp > cfg.Layers {
			continue
		}
		for _, tp := range tps {
			if tp > nodeShape(g) {
				continue
			}
			maxDP := totalGPUs / (pp * tp)
			if maxDP < 1 {
				continue
			}
			for _, dp := range powersOfTwo(maxDP) {
				for _, mbs := range mbss {
					if cfg.GlobalBatch < dp*mbs {
						continue
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						return rankCandidates(cands)
					}
					plan, ok := planFn(pp, dp, tp, mbs)
					if !ok {
						continue
					}
					est, err := e.IterTime(plan)
					if err != nil {
						continue
					}
					if !fitsOwnModel(e, plan) {
						continue
					}
					mem, _ := e.PeakMemory(plan)
					cands = append(cands, Candidate{Plan: plan, EstIterTime: est, EstMemory: mem})
				}
			}
		}
	}
	return rankCandidates(cands)
}

func rankCandidates(cands []Candidate) []Candidate {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].EstIterTime < cands[j].EstIterTime })
	const keep = 64
	if len(cands) > keep {
		cands = cands[:keep]
	}
	return cands
}

func deadlineFrom(env Env) time.Time {
	if env.Deadline <= 0 {
		return time.Time{}
	}
	return time.Now().Add(env.Deadline)
}

// --- Piper [59] -------------------------------------------------------------
//
// Multidimensional dynamic programming over 3D degrees for homogeneous
// clusters. No resource selection, no heterogeneity, no zones. Its memory
// accounting assumes one in-flight microbatch per stage and skips
// communication buffers; its timing assumes uniform devices and bandwidth.

// Piper is the homogeneous 3D planner of Tarnawski et al. (NeurIPS'21).
type Piper struct{ Env Env }

// Name implements Planner.
func (p *Piper) Name() string { return "Piper" }

// Caps implements Planner.
func (p *Piper) Caps() Caps { return Caps{Parallelisms: "3D"} }

// Estimator implements Planner.
func (p *Piper) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: p.Env.Cfg, prof: p.Env.Prof, uniformGPU: true, uniformBW: true},
		mm: memModel{cfg: p.Env.Cfg, uniformStages: true, ignoreComm: true},
	}
}

// Rank implements Planner.
func (p *Piper) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	types := t.gpuTypes()
	if len(types) == 0 {
		return Ranking{}, errNoNodes("Piper")
	}
	g := types[0] // homogeneous planner: best type only
	cands := gridRank(p.Env.Cfg, p.Estimator(), t, g,
		[]int{1, 2, 3, 4, 6, 8, 12, 16}, powersOfTwo(nodeShape(g)), []int{1, 2, 4, 8},
		16, deadlineFrom(p.Env),
		func(pp, dp, tp, mbs int) (core.Plan, bool) {
			return uniformPlan(p.Env.Cfg, t, g, pp, dp, tp, mbs)
		})
	return Ranking{Candidates: cands, SearchTime: time.Since(start)}, nil
}

// --- Varuna [3] -------------------------------------------------------------
//
// Exhaustive 2D (DP x PP) search with TP fixed at 1. Its memory estimator
// omits optimizer states, communication buffers and the loss logits — the
// omissions behind the invalid plans of §5.2.1 — so OOM plans pass its own
// filter.

// Varuna is the 2D planner of Athlur et al. (EuroSys'22).
type Varuna struct{ Env Env }

// Name implements Planner.
func (v *Varuna) Name() string { return "Varuna" }

// Caps implements Planner.
func (v *Varuna) Caps() Caps { return Caps{Parallelisms: "2D"} }

// Estimator implements Planner.
func (v *Varuna) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: v.Env.Cfg, prof: v.Env.Prof, uniformGPU: true, uniformBW: true},
		mm: memModel{cfg: v.Env.Cfg, ignoreOptimizer: true, ignoreComm: true, ignoreLogits: true},
	}
}

// Rank implements Planner.
func (v *Varuna) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	types := t.gpuTypes()
	if len(types) == 0 {
		return Ranking{}, errNoNodes("Varuna")
	}
	g := types[0]
	pps := make([]int, 0, 16)
	for pp := 1; pp <= 16; pp++ {
		pps = append(pps, pp) // exhaustive, not just powers
	}
	cands := gridRank(v.Env.Cfg, v.Estimator(), t, g,
		pps, []int{1}, []int{1, 2, 4, 8, 16},
		16, deadlineFrom(v.Env),
		func(pp, dp, tp, mbs int) (core.Plan, bool) {
			return uniformPlan(v.Env.Cfg, t, g, pp, dp, tp, mbs)
		})
	return Ranking{Candidates: cands, SearchTime: time.Since(start)}, nil
}

// --- Galvatron [37] ---------------------------------------------------------
//
// Homogeneous 3D planner with a decision-tree-pruned search and a reasonable
// memory model (it only misses the logits buffer). The strongest homogeneous
// baseline in §5.2.4.

// Galvatron is the planner of Miao et al. (VLDB'23).
type Galvatron struct{ Env Env }

// Name implements Planner.
func (g *Galvatron) Name() string { return "Galvatron" }

// Caps implements Planner.
func (g *Galvatron) Caps() Caps { return Caps{Parallelisms: "3D"} }

// Estimator implements Planner.
func (g *Galvatron) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: g.Env.Cfg, prof: g.Env.Prof, uniformGPU: true, uniformBW: true},
		mm: memModel{cfg: g.Env.Cfg, ignoreLogits: true},
	}
}

// Rank implements Planner.
func (g *Galvatron) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	types := t.gpuTypes()
	if len(types) == 0 {
		return Ranking{}, errNoNodes("Galvatron")
	}
	best := types[0]
	cands := gridRank(g.Env.Cfg, g.Estimator(), t, best,
		[]int{1, 2, 3, 4, 6, 8, 12, 16}, powersOfTwo(nodeShape(best)), []int{1, 2, 4, 8, 16},
		16, deadlineFrom(g.Env),
		func(pp, dp, tp, mbs int) (core.Plan, bool) {
			return uniformPlan(g.Env.Cfg, t, best, pp, dp, tp, mbs)
		})
	return Ranking{Candidates: cands, SearchTime: time.Since(start)}, nil
}

// --- Oobleck [21] -----------------------------------------------------------
//
// Resilient training via pipeline templates: it enumerates pipeline
// templates (depth x non-uniform layer splits) exhaustively, which is what
// drives its hours-scale search in Table 1. Memory accounting omits
// optimizer states.

// Oobleck is the template-based planner of Jang et al. (SOSP'23).
type Oobleck struct{ Env Env }

// Name implements Planner.
func (o *Oobleck) Name() string { return "Oobleck" }

// Caps implements Planner.
func (o *Oobleck) Caps() Caps { return Caps{Parallelisms: "3D"} }

// Estimator implements Planner.
func (o *Oobleck) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: o.Env.Cfg, prof: o.Env.Prof, uniformGPU: true, uniformBW: true},
		mm: memModel{cfg: o.Env.Cfg, ignoreOptimizer: true},
	}
}

// Rank implements Planner.
func (o *Oobleck) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	types := t.gpuTypes()
	if len(types) == 0 {
		return Ranking{}, errNoNodes("Oobleck")
	}
	g := types[0]
	est := o.Estimator()
	deadline := deadlineFrom(o.Env)
	totalGPUs := t.totalNodes(g) * nodeShape(g)
	var cands []Candidate
	// Template enumeration: every pipeline depth, every single-boundary
	// shift of the even layer split, every (tp, dp, mbs) — deliberately
	// combinatorial, capped by the deadline like the paper caps Metis.
	for pp := 1; pp <= 16 && pp <= o.Env.Cfg.Layers; pp++ {
		for _, layers := range templateSplits(o.Env.Cfg.Layers, pp) {
			for _, tp := range powersOfTwo(nodeShape(g)) {
				maxDP := totalGPUs / (pp * tp)
				for _, dp := range powersOfTwo(maxDP) {
					for _, mbs := range []int{1, 2, 4, 8} {
						if o.Env.Cfg.GlobalBatch < dp*mbs {
							continue
						}
						if !deadline.IsZero() && time.Now().After(deadline) {
							return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
						}
						plan, ok := shapedPlan(o.Env.Cfg, t, g, layers, dp, tp, mbs)
						if !ok {
							continue
						}
						it, err := est.IterTime(plan)
						if err != nil || !fitsOwnModel(est, plan) {
							continue
						}
						mem, _ := est.PeakMemory(plan)
						cands = append(cands, Candidate{Plan: plan, EstIterTime: it, EstMemory: mem})
					}
				}
			}
		}
	}
	return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
}

// templateSplits returns the even split of l layers into pp stages plus all
// single-boundary perturbations — Oobleck's template family.
func templateSplits(l, pp int) [][]int {
	base := core.SplitLayers(l, pp)
	out := [][]int{base}
	for b := 0; b < pp-1; b++ {
		v := append([]int(nil), base...)
		if v[b] > 1 {
			v[b]--
			v[b+1]++
			out = append(out, v)
		}
	}
	return out
}

// shapedPlan is uniformPlan with an explicit per-stage layer split.
func shapedPlan(cfg model.Config, t vmTopology, g core.GPUType, layers []int, dp, tp, mbs int) (core.Plan, bool) {
	pp := len(layers)
	plan, ok := uniformPlan(cfg, t, g, pp, dp, tp, mbs)
	if !ok {
		return core.Plan{}, false
	}
	first := 0
	for i := range plan.Stages {
		plan.Stages[i].FirstLayer = first
		plan.Stages[i].NumLayers = layers[i]
		first += layers[i]
	}
	return plan, true
}

type errNoNodes string

func (e errNoNodes) Error() string { return string(e) + ": no whole VMs available" }
