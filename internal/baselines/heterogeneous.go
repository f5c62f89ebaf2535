package baselines

import (
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// --- AMP [27] ---------------------------------------------------------------
//
// "Automatically finding model parallel strategies with heterogeneity
// awareness": AMP knows per-type speeds but only emits homogeneous degree
// tuples, fills pipelines fastest-type-first, averages stage times instead
// of modelling stragglers, and has no memory model at all — the combination
// behind its OOM emissions and poor heterogeneous plans in Figures 8-9.

// AMP is the planner of Li et al. (NeurIPS'22).
type AMP struct{ Env Env }

// Name implements Planner.
func (a *AMP) Name() string { return "AMP" }

// Caps implements Planner.
func (a *AMP) Caps() Caps {
	return Caps{Parallelisms: "3D", HeterogeneousGPUs: true}
}

// Estimator implements Planner.
func (a *AMP) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: a.Env.Cfg, prof: a.Env.Prof, averageStages: true, uniformBW: true},
		mm: memModel{cfg: a.Env.Cfg, none: true},
	}
}

// Rank implements Planner.
func (a *AMP) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	if len(t.zones) == 0 {
		return Ranking{}, errNoNodes("AMP")
	}
	est := a.Estimator()
	deadline := deadlineFrom(a.Env)
	maxNode := 0
	total := 0
	for _, g := range t.gpuTypes() {
		if n := nodeShape(g); n > maxNode {
			maxNode = n
		}
		total += t.totalNodes(g) * nodeShape(g)
	}
	var cands []Candidate
	// AMP sweeps a finer mbs grid than most, part of its longer search.
	for _, pp := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		for _, tp := range powersOfTwo(maxNode) {
			maxDP := total / (pp * tp)
			for _, dp := range powersOfTwo(maxDP) {
				for _, mbs := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
					if a.Env.Cfg.GlobalBatch < dp*mbs {
						continue
					}
					if !deadline.IsZero() && time.Now().After(deadline) {
						return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
					}
					plan, ok := mixedFillPlan(a.Env.Cfg, t, pp, dp, tp, mbs)
					if !ok {
						continue
					}
					it, err := est.IterTime(plan)
					if err != nil {
						continue
					}
					cands = append(cands, Candidate{Plan: plan, EstIterTime: it})
				}
			}
		}
	}
	return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
}

// --- Metis [62] -------------------------------------------------------------
//
// Exhaustive search over heterogeneous device groupings with load-balanced
// layer partitioning. Good compute and memory modelling (it only misses the
// logits buffer), but it prices every link at intra-zone bandwidth — the 28%
// iteration-time error of Figure 6 — and its group-permutation enumeration
// is the hours-scale search of Table 1, so the harness caps it (the paper
// uses a 300 s cap).

// Metis is the planner of Um et al. (ATC'24).
type Metis struct{ Env Env }

// Name implements Planner.
func (m *Metis) Name() string { return "Metis" }

// Caps implements Planner.
func (m *Metis) Caps() Caps {
	return Caps{Parallelisms: "3D", HeterogeneousGPUs: true}
}

// Estimator implements Planner.
func (m *Metis) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: m.Env.Cfg, prof: m.Env.Prof, uniformBW: true},
		mm: memModel{cfg: m.Env.Cfg, ignoreLogits: true},
	}
}

// Rank implements Planner.
func (m *Metis) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	if len(t.zones) == 0 {
		return Ranking{}, errNoNodes("Metis")
	}
	est := m.Estimator()
	deadline := deadlineFrom(m.Env)
	types := t.gpuTypes()

	// Node inventory per type.
	nodesOf := map[core.GPUType]int{}
	for _, g := range types {
		nodesOf[g] = t.totalNodes(g)
	}

	var cands []Candidate
	// For every pipeline depth, enumerate how many stages each GPU type
	// owns (compositions), then every (tp per type, dp, mbs). Stage layer
	// counts are balanced by measured per-type speed. The composition *
	// permutation space is the exponential part; the deadline caps it.
	for pp := 1; pp <= 16 && pp <= m.Env.Cfg.Layers; pp++ {
		for _, comp := range compositions(pp, len(types)) {
			// Permute which type owns the leading stages.
			for _, order := range permutations(len(types)) {
				for _, tp := range powersOfTwo(4) {
					// Capacity: stages of type g need dp*tp GPUs each.
					maxDP := 1 << 16
					feasible := true
					for ti, g := range types {
						stages := comp[ti]
						if stages == 0 {
							continue
						}
						gpus := nodesOf[g] * nodeShape(g)
						if tp > nodeShape(g) {
							feasible = false
							break
						}
						if d := gpus / (stages * tp); d < maxDP {
							maxDP = d
						}
					}
					if !feasible || maxDP < 1 {
						continue
					}
					// Metis enumerates exhaustively: every DP degree (not
					// just powers of two), a fine microbatch grid, and
					// several load-balance variance settings — the search
					// that runs for hours in Table 1.
					for dp := 1; dp <= maxDP; dp++ {
						for _, mbs := range []int{1, 2, 3, 4, 6, 8} {
							if m.Env.Cfg.GlobalBatch < dp*mbs {
								continue
							}
							for _, variance := range []float64{0.5, 1.0, 1.5} {
								if !deadline.IsZero() && time.Now().After(deadline) {
									return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
								}
								plan, ok := m.groupedPlan(t, types, comp, order, dp, tp, mbs, variance)
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
		}
	}
	return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
}

// groupedPlan builds a pipeline where each GPU type owns a contiguous block
// of stages (comp[ti] stages for types[order[i]]), with layers balanced by
// per-type speed raised to the variance exponent (Metis's device-group
// variance knob).
func (m *Metis) groupedPlan(t vmTopology, types []core.GPUType, comp []int, order []int, dp, tp, mbs int, variance float64) (core.Plan, bool) {
	// Stage sequence of GPU types.
	var stageType []core.GPUType
	for _, oi := range order {
		for s := 0; s < comp[oi]; s++ {
			stageType = append(stageType, types[oi])
		}
	}
	pp := len(stageType)
	if pp == 0 || pp > m.Env.Cfg.Layers {
		return core.Plan{}, false
	}
	// Load-balanced layer partition: layers proportional to type speed.
	speeds := make([]float64, pp)
	sum := 0.0
	for i, g := range stageType {
		lt, err := m.Env.Prof.LayerTimingFor(g, mbs, tp)
		if err != nil {
			return core.Plan{}, false
		}
		speeds[i] = math.Pow(1.0/(lt.Fwd+lt.Bwd), variance)
		sum += speeds[i]
	}
	layers := make([]int, pp)
	assigned := 0
	for i := range layers {
		layers[i] = int(float64(m.Env.Cfg.Layers) * speeds[i] / sum)
		if layers[i] < 1 {
			layers[i] = 1
		}
		assigned += layers[i]
	}
	// Fix rounding drift on the fastest stage.
	fastest := 0
	for i := range speeds {
		if speeds[i] > speeds[fastest] {
			fastest = i
		}
	}
	layers[fastest] += m.Env.Cfg.Layers - assigned
	if layers[fastest] < 1 {
		return core.Plan{}, false
	}
	// Zone slots per type.
	slots := map[core.GPUType][]core.Zone{}
	for _, z := range t.zones {
		for g, n := range t.nodes[z] {
			perNode := nodeShape(g) / tp
			for i := 0; i < n*perNode; i++ {
				slots[g] = append(slots[g], z)
			}
		}
	}
	plan := core.Plan{MicroBatchSize: mbs}
	used := map[core.GPUType]int{}
	first := 0
	for i := 0; i < pp; i++ {
		g := stageType[i]
		st := core.StagePlan{FirstLayer: first, NumLayers: layers[i]}
		for r := 0; r < dp; r++ {
			if used[g] >= len(slots[g]) {
				return core.Plan{}, false
			}
			st.Replicas = append(st.Replicas, core.StageReplica{GPU: g, TP: tp, Zone: slots[g][used[g]]})
			used[g]++
		}
		plan.Stages = append(plan.Stages, st)
		first += layers[i]
	}
	if first != m.Env.Cfg.Layers {
		return core.Plan{}, false
	}
	return plan, true
}

// compositions enumerates how pp stages split across k types (weak
// compositions of pp into k parts).
func compositions(pp, k int) [][]int {
	if k == 1 {
		return [][]int{{pp}}
	}
	var out [][]int
	for first := 0; first <= pp; first++ {
		for _, rest := range compositions(pp-first, k-1) {
			out = append(out, append([]int{first}, rest...))
		}
	}
	return out
}

// permutations enumerates orderings of k indices.
func permutations(k int) [][]int {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(n int)
	rec = func(n int) {
		if n == 1 {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := 0; i < n; i++ {
			idx[i], idx[n-1] = idx[n-1], idx[i]
			rec(n - 1)
			idx[i], idx[n-1] = idx[n-1], idx[i]
		}
	}
	rec(k)
	return out
}

// --- FlashFlex [72] ---------------------------------------------------------
//
// Heterogeneity-aware but driven by theoretical peak FLOPS instead of
// measured profiles (the 69% time error of Figure 6), with a uniform
// per-stage memory picture. It favours deep pipelines with small TP and
// microbatches — the throughput-losing shape §5.2.2 describes.

// FlashFlex is the planner of Yan et al. (2024).
type FlashFlex struct{ Env Env }

// Name implements Planner.
func (f *FlashFlex) Name() string { return "FlashFlex" }

// Caps implements Planner.
func (f *FlashFlex) Caps() Caps {
	return Caps{Parallelisms: "3D", PicksResources: true, HeterogeneousGPUs: true}
}

// Estimator implements Planner.
func (f *FlashFlex) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: f.Env.Cfg, prof: f.Env.Prof, theoreticalFLOPS: true, uniformBW: true},
		mm: memModel{cfg: f.Env.Cfg, uniformStages: true, ignoreLogits: true, ignoreComm: true},
	}
}

// Rank implements Planner.
func (f *FlashFlex) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	if len(t.zones) == 0 {
		return Ranking{}, errNoNodes("FlashFlex")
	}
	est := f.Estimator()
	types := t.gpuTypes()

	// FlashFlex prefers long pipelines, low TP, small microbatches: deep
	// pipelines first, tp in {1, 2}, mbs in {1, 2}.
	var cands []Candidate
	totalNodes := 0
	for _, g := range types {
		totalNodes += t.totalNodes(g)
	}
	var pps []int
	for pp := min(16, f.Env.Cfg.Layers); pp >= 1; pp /= 2 {
		pps = append(pps, pp)
	}
	for _, pp := range pps {
		for _, tp := range []int{1, 2} {
			for _, mbs := range []int{1, 2} {
				plan, ok := f.balancedPlan(t, types, pp, tp, mbs)
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
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].EstIterTime < cands[j].EstIterTime })
	return Ranking{Candidates: cands, SearchTime: time.Since(start)}, nil
}

// balancedPlan assigns stage GPU types by greedy theoretical-FLOPS
// balancing and uses the largest uniform DP the slots allow.
func (f *FlashFlex) balancedPlan(t vmTopology, types []core.GPUType, pp, tp, mbs int) (core.Plan, bool) {
	if pp > f.Env.Cfg.Layers {
		return core.Plan{}, false
	}
	// Slot pools per type.
	slotZones := map[core.GPUType][]core.Zone{}
	for _, z := range t.zones {
		for g, n := range t.nodes[z] {
			if tp > nodeShape(g) {
				continue
			}
			perNode := nodeShape(g) / tp
			for i := 0; i < n*perNode; i++ {
				slotZones[g] = append(slotZones[g], z)
			}
		}
	}
	// Greedy: assign each type's slots to the stage with the least total
	// theoretical FLOPS, then dp = min over stages of slot count.
	stageFLOPS := make([]float64, pp)
	stageSlots := make([][]core.StageReplica, pp)
	for _, g := range types {
		spec, err := lookupSpec(g)
		if err != nil {
			return core.Plan{}, false
		}
		for _, z := range slotZones[g] {
			least := 0
			for i := 1; i < pp; i++ {
				if stageFLOPS[i] < stageFLOPS[least] {
					least = i
				}
			}
			stageSlots[least] = append(stageSlots[least], core.StageReplica{GPU: g, TP: tp, Zone: z})
			stageFLOPS[least] += spec.PeakTFLOPS * float64(tp)
		}
	}
	dp := -1
	for i := 0; i < pp; i++ {
		if dp < 0 || len(stageSlots[i]) < dp {
			dp = len(stageSlots[i])
		}
	}
	if dp < 1 || f.Env.Cfg.GlobalBatch < dp*mbs {
		return core.Plan{}, false
	}
	layers := core.SplitLayers(f.Env.Cfg.Layers, pp)
	plan := core.Plan{MicroBatchSize: mbs}
	first := 0
	for i := 0; i < pp; i++ {
		st := core.StagePlan{FirstLayer: first, NumLayers: layers[i], Replicas: stageSlots[i][:dp]}
		plan.Stages = append(plan.Stages, st)
		first += layers[i]
	}
	return plan, true
}
