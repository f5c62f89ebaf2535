package planner

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// refCombos is the reference list of one stage's compositions in one
// region: it asks the evaluator for every group of every composition,
// sharing no code with buildCombos, and enumerates in the documented order
// (single-type compositions per type and TP, then two-type mixes per type
// pair, TP pair and split point), keeping what the region's availability
// row can host. oom and mixedTP count the rejected (type, TP) workers and
// the mixes whose groups differ in TP, so the caller can check that both
// cases were exercised.
type refCombos struct {
	cfg     model.Config
	ev      Evaluator
	h2      bool
	oom     int
	mixedTP int
}

// tps lists the TP degrees the reference offers type g at a stage.
func (r *refCombos) tps(g core.GPUType, layers, stage, pp, mbs, nb int) []int {
	node := hardware.DefaultNodeType(g).GPUsPerNode
	var out []int
	if !r.h2 {
		for tp := 1; tp <= node; tp *= 2 {
			out = append(out, tp)
		}
		return out
	}
	lo := memory.MinTP(r.cfg, g, layers, stage, pp, mbs, min(nb, pp))
	if lo == 0 {
		return nil
	}
	out = append(out, lo)
	if 2*lo <= node {
		out = append(out, 2*lo)
	}
	return out
}

// score quotes one composition group by group; ok is false when a group
// has no timing or its worker, with nb microbatches per pipeline (the
// in-flight rule memory.Check applies), does not fit in memory.
func (r *refCombos) score(types []core.GPUType, groups []replicaGroup, layers []int, stage, mbs, d, nb int) (c stageChoice, ok bool) {
	pp := len(layers)
	smallest := 0
	for _, g := range groups {
		gpu := types[g.typeIdx]
		tm, err := r.ev.StageComputeTimeWith(gpu, g.tp, mbs, layers[stage], stage == pp-1, false)
		if err != nil {
			return c, false
		}
		w := memory.WorkerShape{
			Layers: layers[stage], StageIdx: stage, PP: pp, TP: g.tp,
			MicroBS: mbs, NumMicro: nb, FirstStg: stage == 0, LastStg: stage == pp-1,
		}
		if !memory.Fits(memory.WorkerFootprint(r.cfg, w).Total(), hardware.MustLookup(gpu).MemoryBytes) {
			r.oom++
			return c, false
		}
		if tm > c.perMB {
			c.perMB = tm
		}
		c.rateUSD += r.ev.GPUHourUSD(gpu) / 3600 * float64(g.count*g.tp)
		if smallest == 0 || g.tp < smallest {
			smallest = g.tp
		}
	}
	if d > 1 {
		c.sync = r.ev.DPSyncTime(int64(layers[stage])*r.cfg.GradBytesPerLayer(smallest), d)
	}
	return c, true
}

func (r *refCombos) list(rs *regionState, region int, layers []int, stage, mbs, d, nb int) []stageChoice {
	pp := len(layers)
	var out []stageChoice
	emit := func(groups ...replicaGroup) {
		for i := range groups {
			groups[i].need = groups[i].count * groups[i].tp
		}
		c, ok := r.score(rs.types, groups, layers, stage, mbs, d, nb)
		if !ok {
			return
		}
		for _, g := range groups {
			if rs.count(region, g.typeIdx) < g.need {
				return
			}
		}
		c.region, c.groups = region, groups
		out = append(out, c)
	}
	tps := make([][]int, len(rs.types))
	for ti, g := range rs.types {
		tps[ti] = r.tps(g, layers[stage], stage, pp, mbs, nb)
		for _, tp := range tps[ti] {
			emit(replicaGroup{typeIdx: ti, count: d, tp: tp})
		}
	}
	var ks []int
	for _, k := range []int{1, d / 4, d / 2, 3 * d / 4, d - 1} {
		seen := false
		for _, s := range ks {
			seen = seen || s == k
		}
		if k >= 1 && k < d && !seen {
			ks = append(ks, k)
		}
	}
	for a := range rs.types {
		for b := a + 1; b < len(rs.types); b++ {
			for _, tpa := range tps[a] {
				for _, tpb := range tps[b] {
					for _, k := range ks {
						if tpa != tpb {
							r.mixedTP++
						}
						emit(replicaGroup{typeIdx: a, count: k, tp: tpa}, replicaGroup{typeIdx: b, count: d - k, tp: tpb})
					}
				}
			}
		}
	}
	return out
}

// TestStageQuotesMatchEvaluator: the compositions stageCombos returns — each
// scored from one quote per (type, TP) — are exactly the list a reference
// scorer builds by asking the evaluator for every group of every
// composition: same order, same groups, bit-identical perMB, sync and rate,
// the DP sync quoted at the composition's smallest TP, and no group whose
// worker does not fit in memory. Pools are random over 1-3 GPU types and
// 1-3 regions, with H2 on and off, d ∈ {1, 2, 4, 8, 16}, and a full and a
// small global batch (the small one leaves fewer microbatches per pipeline
// than pp − stage, so the in-flight rule min(pp − stage, nb) decides which
// workers fit).
func TestStageQuotesMatchEvaluator(t *testing.T) {
	base := model.GPTNeo27B()
	gpus := []core.GPUType{core.A100, core.V100, core.A10G}
	prof, err := profiler.Collect(base, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := base
	small.GlobalBatch = 32
	zones := []core.Zone{zoneA, zoneW, zoneEU}
	rng := rand.New(rand.NewSource(3))
	var oom, mixedTP, checked, filtered int
	for n := 0; n < 160; n++ {
		cfg := base
		if n%3 == 2 {
			cfg = small
		}
		ev := sim.New(cfg, prof)
		heur := AllHeuristics()
		heur.H2MinTP = n%2 == 0
		pool := cluster.NewPool()
		nt, nz := 1+rng.Intn(3), 1+rng.Intn(3)
		for _, z := range zones[:nz] {
			for _, g := range gpus[:nt] {
				pool.Set(z, g, rng.Intn(65))
			}
		}
		if pool.TotalGPUs() == 0 {
			continue
		}
		pp := []int{1, 2, 4, 8}[rng.Intn(4)]
		mbs := []int{1, 2, 4}[rng.Intn(3)]
		d := []int{1, 2, 4, 8, 16}[n%5]
		nb := memory.Microbatches(cfg.GlobalBatch, d, mbs)
		layers := partitionLayers(cfg.Layers, pp)

		pl := New(cfg, ev, Options{Heuristics: heur, Workers: 1})
		rs := newRegionState(pool, true)
		s := newSearch(pl, context.Background())
		s.bindState(rs, pool)
		tk := s.taskFor(0)
		tk.reset(rs, mbs)
		tk.init(layers)
		tk.resetMemo(d, nb)
		ref := &refCombos{cfg: cfg, ev: ev, h2: heur.H2MinTP}
		for stage := 0; stage < pp; stage++ {
			for region := range rs.regions {
				want := ref.list(rs, region, layers, stage, mbs, d, nb)
				got := tk.stageCombos(&tk.rs, region, stage, d)
				if len(got) != len(want) {
					t.Fatalf("case %d (pool %s, pp %d, mbs %d, d %d, nb %d, H2 %v) stage %d region %d: %d compositions, want %d",
						n, pool, pp, mbs, d, nb, heur.H2MinTP, stage, region, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					same := g.region == w.region && g.perMB == w.perMB && g.sync == w.sync &&
						g.rateUSD == w.rateUSD && len(g.groups) == len(w.groups)
					for j := 0; same && j < len(w.groups); j++ {
						same = g.groups[j] == w.groups[j]
					}
					if !same {
						t.Fatalf("case %d (pool %s, pp %d, mbs %d, d %d, nb %d, H2 %v) stage %d region %d composition %d:\ngot  %+v\nwant %+v",
							n, pool, pp, mbs, d, nb, heur.H2MinTP, stage, region, i, g, w)
					}
				}
				checked += len(want)
				filtered += len(tk.comboCache[stage]) - len(want)
			}
		}
		s.stop()
		oom, mixedTP = oom+ref.oom, mixedTP+ref.mixedTP
	}
	// The cases must reach what the oracle guards: workers that do not fit,
	// mixes whose sync depends on picking the smaller TP, and compositions
	// the availability filter drops.
	if oom == 0 || mixedTP == 0 || filtered == 0 || checked < 1000 {
		t.Errorf("weak coverage: %d OOM workers, %d mixed-TP mixes, %d filtered, %d compositions checked", oom, mixedTP, filtered, checked)
	}
	t.Logf("%d compositions checked, %d filtered by availability; %d OOM workers, %d mixed-TP mixes", checked, filtered, oom, mixedTP)
}
