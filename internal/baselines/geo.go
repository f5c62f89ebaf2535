package baselines

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// --- DTFM [74] --------------------------------------------------------------
//
// Decentralized training of foundation models: a 2D (DP x PP) scheduler for
// geo-distributed pools. It does not pick parallelism degrees itself, so the
// harness (like the paper) exhaustively generates homogeneous (dp, pp, mbs)
// plans and applies DTFM's partitioning to each. Its cost function ranks by
// communication time alone and it spreads work across every zone and region
// it is given — the two flaws behind Figures 11-12 — and it has no memory
// model, so it fails on GPT-Neo with OOMs.

// DTFM is the scheduler of Yuan et al. (2023).
type DTFM struct{ Env Env }

// Name implements Planner.
func (d *DTFM) Name() string { return "DTFM" }

// Caps implements Planner.
func (d *DTFM) Caps() Caps {
	return Caps{Parallelisms: "2D", PicksResources: true, MultiZone: true}
}

// Estimator implements Planner.
func (d *DTFM) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: d.Env.Cfg, prof: d.Env.Prof, commOnly: true},
		mm: memModel{cfg: d.Env.Cfg, none: true},
	}
}

// Rank implements Planner.
func (d *DTFM) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	if len(t.zones) == 0 {
		return Ranking{}, errNoNodes("DTFM")
	}
	est := d.Estimator()
	deadline := deadlineFrom(d.Env)
	g := t.gpuTypes()[0] // geo scheduler, single GPU type
	total := t.totalNodes(g) * nodeShape(g)

	var cands []Candidate
	// DTFM schedules over the pool it is given: every plan uses all slots
	// (pp*dp == total GPUs), which is why it spreads across every zone and
	// region whether or not that helps (§5.2.3).
	for pp := 1; pp <= 16 && pp <= d.Env.Cfg.Layers; pp++ {
		if total%pp != 0 {
			continue
		}
		dp := total / pp
		{
			for _, mbs := range []int{1, 2, 4, 8} {
				if d.Env.Cfg.GlobalBatch < dp*mbs {
					continue
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
				}
				plan, ok := d.spreadPlan(t, g, pp, dp, mbs)
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
	return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
}

// spreadPlan places replicas round-robin across every zone — DTFM uses all
// the regions it is given, which inflates communication and egress without
// helping throughput (§5.2.3).
func (d *DTFM) spreadPlan(t vmTopology, g core.GPUType, pp, dp, mbs int) (core.Plan, bool) {
	if pp > d.Env.Cfg.Layers {
		return core.Plan{}, false
	}
	// Per-zone slot counts (tp = 1: DTFM is 2D).
	type zslots struct {
		z core.Zone
		n int
	}
	var zs []zslots
	for _, z := range t.zones {
		if n := t.nodes[z][g] * nodeShape(g); n > 0 {
			zs = append(zs, zslots{z, n})
		}
	}
	if len(zs) == 0 {
		return core.Plan{}, false
	}
	layers := core.SplitLayers(d.Env.Cfg.Layers, pp)
	plan := core.Plan{MicroBatchSize: mbs}
	zi := 0
	take := func() (core.Zone, bool) {
		for tries := 0; tries < len(zs); tries++ {
			cand := &zs[(zi+tries)%len(zs)]
			if cand.n > 0 {
				cand.n--
				zi = (zi + tries + 1) % len(zs)
				return cand.z, true
			}
		}
		return core.Zone{}, false
	}
	first := 0
	for i := 0; i < pp; i++ {
		st := core.StagePlan{FirstLayer: first, NumLayers: layers[i]}
		for r := 0; r < dp; r++ {
			z, ok := take()
			if !ok {
				return core.Plan{}, false
			}
			st.Replicas = append(st.Replicas, core.StageReplica{GPU: g, TP: 1, Zone: z})
		}
		plan.Stages = append(plan.Stages, st)
		first += layers[i]
	}
	return plan, true
}

// --- Aceso [31] -------------------------------------------------------------
//
// Iterative bottleneck alleviation: start from a seed configuration, find
// the bottleneck dimension under the estimator, apply the best single-step
// mutation, repeat until a local optimum; restart from several seeds. A
// homogeneous planner with its own (uniform-device, uniform-bandwidth)
// simulator — the ~200 s search and 37% heterogeneous error of §5.

// Aceso is the planner of Liu et al. (EuroSys'24).
type Aceso struct{ Env Env }

// Name implements Planner.
func (a *Aceso) Name() string { return "Aceso" }

// Caps implements Planner.
func (a *Aceso) Caps() Caps { return Caps{Parallelisms: "3D"} }

// Estimator implements Planner.
func (a *Aceso) Estimator() Estimator {
	return estimator{
		tm: timeModel{cfg: a.Env.Cfg, prof: a.Env.Prof, uniformGPU: true, uniformBW: true, ignoreHead: true},
		mm: memModel{cfg: a.Env.Cfg, ignoreComm: true, ignoreLogits: true},
	}
}

// Rank implements Planner.
func (a *Aceso) Rank(pool *cluster.Pool) (Ranking, error) {
	start := time.Now()
	t := topologyOf(pool)
	types := t.gpuTypes()
	if len(types) == 0 {
		return Ranking{}, errNoNodes("Aceso")
	}
	g := types[0]
	est := a.Estimator()
	deadline := deadlineFrom(a.Env)
	total := t.totalNodes(g) * nodeShape(g)

	type config struct{ pp, tp, dp, mbs int }
	eval := func(c config) (Candidate, bool) {
		if c.pp < 1 || c.tp < 1 || c.dp < 1 || c.mbs < 1 ||
			c.pp > a.Env.Cfg.Layers || c.tp > nodeShape(g) ||
			c.pp*c.tp*c.dp > total || a.Env.Cfg.GlobalBatch < c.dp*c.mbs {
			return Candidate{}, false
		}
		plan, ok := uniformPlan(a.Env.Cfg, t, g, c.pp, c.dp, c.tp, c.mbs)
		if !ok {
			return Candidate{}, false
		}
		it, err := est.IterTime(plan)
		if err != nil || !fitsOwnModel(est, plan) {
			return Candidate{}, false
		}
		mem, _ := est.PeakMemory(plan)
		return Candidate{Plan: plan, EstIterTime: it, EstMemory: mem}, true
	}

	var cands []Candidate
	seeds := []config{
		{pp: 4, tp: nodeShape(g), dp: max(1, total/(4*nodeShape(g))), mbs: 4},
		{pp: 2, tp: 1, dp: max(1, total/2), mbs: 1},
		{pp: 8, tp: 2, dp: max(1, total/16), mbs: 2},
	}
	for _, seed := range seeds {
		cur, ok := eval(seed)
		curCfg := seed
		if !ok {
			continue
		}
		for step := 0; step < 64; step++ {
			if !deadline.IsZero() && time.Now().After(deadline) {
				break
			}
			// Bottleneck alleviation: try every single-dimension mutation,
			// take the best improvement.
			muts := []config{
				{curCfg.pp * 2, curCfg.tp, curCfg.dp, curCfg.mbs},
				{curCfg.pp / 2, curCfg.tp, curCfg.dp, curCfg.mbs},
				{curCfg.pp, curCfg.tp * 2, curCfg.dp, curCfg.mbs},
				{curCfg.pp, curCfg.tp / 2, curCfg.dp, curCfg.mbs},
				{curCfg.pp, curCfg.tp, curCfg.dp * 2, curCfg.mbs},
				{curCfg.pp, curCfg.tp, curCfg.dp / 2, curCfg.mbs},
				{curCfg.pp, curCfg.tp, curCfg.dp, curCfg.mbs * 2},
				{curCfg.pp, curCfg.tp, curCfg.dp, curCfg.mbs / 2},
			}
			improved := false
			for _, mc := range muts {
				if c, ok := eval(mc); ok && c.EstIterTime < cur.EstIterTime {
					cur, curCfg, improved = c, mc, true
				}
			}
			if !improved {
				break
			}
		}
		cands = append(cands, cur)
	}
	return Ranking{Candidates: rankCandidates(cands), SearchTime: time.Since(start)}, nil
}
