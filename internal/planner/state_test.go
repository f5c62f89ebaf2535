package planner

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// TestSuffixKeyIgnoresConsumedRegions pins the invariant the region-scoped
// memo key rests on: solveDP(i, ri) reads only regions ri..R-1, so its key
// ignores the counts of regions before ri and its result does not depend on
// them. A change that lets a suffix read an earlier region (a cross-region
// link cost at DP time, say) must fail here rather than silently change
// plans through a shared memo entry. Both key encodings are covered: a
// three-region pool packs inline, the five-region pool spills. The keys are
// built with caps that clamp nothing, so only region scoping is at work.
func TestSuffixKeyIgnoresConsumedRegions(t *testing.T) {
	inline := cluster.NewPool().
		Set(zoneA, core.A100, 8).Set(zoneA, core.V100, 8).
		Set(zoneEU, core.A100, 8).Set(zoneEU, core.V100, 8).
		Set(zoneW, core.A100, 8).Set(zoneW, core.V100, 4)
	for _, tc := range []struct {
		name  string
		pool  *cluster.Pool
		spill bool
	}{
		{"inline", inline, false},
		{"spill", fiveRegionPool(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := newRegionState(tc.pool, true)
			caps := unclamped(base, 3)
			if got := base.packedKey(0, 0, caps).spill != ""; got != tc.spill {
				t.Fatalf("spill encoding = %v, want %v", got, tc.spill)
			}
			for ri := 1; ri < len(base.regions); ri++ {
				// spent differs from base only in regions before ri, live
				// only in region ri.
				var spent, live regionState
				base.copyTo(&spent)
				base.copyTo(&live)
				for r := 0; r < ri; r++ {
					spent.addCount(r, 0, -1)
				}
				live.addCount(ri, 1, -1)
				for stage := 0; stage < 3; stage++ {
					if base.packedKey(stage, ri, caps) != spent.packedKey(stage, ri, caps) {
						t.Errorf("ri=%d stage=%d: key depends on regions before ri", ri, stage)
					}
					if base.packedKey(stage, ri, caps) == live.packedKey(stage, ri, caps) {
						t.Errorf("ri=%d stage=%d: key ignores region ri", ri, stage)
					}
					if base.packedKey(stage, ri-1, caps) == spent.packedKey(stage, ri-1, caps) {
						t.Errorf("ri=%d stage=%d: key at ri-1 ignores region ri-1", ri, stage)
					}
				}
			}

			// Solved on fresh tasks (no memo shared), the suffix from
			// (stage 1, region 1) over the two states is the same node.
			solve := func(spend bool) (*task, *dpNode) {
				_, _, tk, _, layers := dpLab(t, tc.pool, core.A100, core.V100)
				if spend {
					tk.rs.addCount(0, 0, -1)
					tk.rs.addCount(0, 1, -2)
				}
				nb := tk.pl.Cfg.GlobalBatch / (2 * 2)
				n := tk.solveDP(&tk.rs, layers, 1, 1, 2, 2, nb, 0)
				if n == nil || tk.explored == 0 {
					t.Fatalf("spend=%v: suffix not solved from scratch (node %v, explored %d)", spend, n, tk.explored)
				}
				return tk, n
			}
			tk, a := solve(false)
			_, b := solve(true)
			nb := tk.pl.Cfg.GlobalBatch / (2 * 2)
			if a.metric(nb) != b.metric(nb) || a.rateUSD != b.rateUSD {
				t.Errorf("suffix differs: metric %v vs %v, rate %v vs %v", a.metric(nb), b.metric(nb), a.rateUSD, b.rateUSD)
			}
			if tk.sigLess(a, b) || tk.sigLess(b, a) {
				t.Error("suffix chains differ in signature")
			}
		})
	}
}

// unclamped returns lane caps over the given stages of rs that clamp
// nothing: every lane at its maximum.
func unclamped(rs *regionState, stages int) *laneCaps {
	c := &laneCaps{byType: make([]int, stages*len(rs.types))}
	for i := range c.byType {
		c.byType[i] = laneMax
	}
	c.pack(len(rs.types), rs.cells())
	return c
}

// TestLaneOverflowGoesWide: a count up to laneMax packs into the lanes and
// keys inline; one past it keeps the state in the wide matrix, whose key
// spills, so no lane ever holds a count with its top bit set.
func TestLaneOverflowGoesWide(t *testing.T) {
	for _, n := range []int{laneMax, laneMax + 1} {
		rs := newRegionState(cluster.NewPool().Set(zoneA, core.A100, n).Set(zoneA, core.V100, 3), true)
		if wide := rs.wide != nil; wide != (n > laneMax) {
			t.Errorf("count %d: wide = %v", n, wide)
		}
		if rs.count(0, 0) != n || rs.count(0, 1) != 3 {
			t.Errorf("count %d: cells read %d, %d", n, rs.count(0, 0), rs.count(0, 1))
		}
		if spill := rs.packedKey(0, 0, unclamped(rs, 1)).spill != ""; spill != (n > laneMax) {
			t.Errorf("count %d: spill key = %v", n, spill)
		}
	}
}

// TestMinLanesMatchesScalar pins the word-wise lane minimum the memo key is
// built with to a scalar min over each 16-bit lane, on random lanes up to
// laneMax with equal lanes and both extremes mixed in.
func TestMinLanesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lane := func() uint64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return laneMax
		}
		return uint64(rng.Intn(laneMax + 1))
	}
	for n := 0; n < 100000; n++ {
		var a, b, want uint64
		for shift := uint(0); shift < 64; shift += 16 {
			x, y := lane(), lane()
			if rng.Intn(4) == 0 {
				y = x
			}
			a, b, want = a|x<<shift, b|y<<shift, want|min(x, y)<<shift
		}
		if got := minLanes(a, b); got != want {
			t.Fatalf("minLanes(%#016x, %#016x) = %#016x, want %#016x", a, b, got, want)
		}
	}
}

// TestLaneClampExact: clamping the memo-key lanes to the scan's caps changes
// no DP answer. For random pools × (pp, mbs, d), solveDP runs on a fresh
// task once with the caps resetMemo computed and once with every lane at its
// maximum; the winning chain and its stats must be identical, and the
// clamped run may explore no more nodes. Pools are surplus-heavy (8-56 GPUs
// per cell against d ≤ 8) over two and three regions; H2 off widens every
// stage's TP range to the node size; H6 off over five zones of two types
// keys ten cells, through the spill path. Both objectives and the cost-lean
// pass run.
func TestLaneClampExact(t *testing.T) {
	cfg := model.OPT350M()
	gpus := []core.GPUType{core.A100, core.V100}
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := sim.New(cfg, prof)
	shapes := []struct {
		zones []core.Zone
		h6    bool
		spill bool
	}{
		{[]core.Zone{zoneA, zoneEU}, true, false},
		{[]core.Zone{zoneA, zoneB, zoneW, zoneEU}, true, false},
		{[]core.Zone{zoneA, zoneB, zoneC, zoneEU, zoneEast}, false, true},
	}
	rng := rand.New(rand.NewSource(7))
	var clampedN, fullN int64
	solved := 0
	for n := 0; n < 120; n++ {
		shape := shapes[n%len(shapes)]
		heur := AllHeuristics()
		heur.H6MergeZones = shape.h6
		heur.H2MinTP = n%4 != 1
		pool := cluster.NewPool()
		for _, z := range shape.zones {
			for _, g := range gpus {
				pool.Set(z, g, 8+rng.Intn(49))
			}
		}
		pp := []int{2, 3, 4, 6, 8}[rng.Intn(5)]
		mbs := []int{1, 2, 4}[rng.Intn(3)]
		d := []int{1, 2, 4, 8}[rng.Intn(4)]
		obj := []core.Objective{core.MaxThroughput, core.MinCost}[n%2]
		costLean := n%3 == 0
		nb := memory.Microbatches(cfg.GlobalBatch, d, mbs)

		solve := func(clamp bool) (sig string, st nodeStats, explored int64) {
			pl := New(cfg, ev, Options{Objective: obj, Heuristics: heur, Workers: 1})
			rs := newRegionState(pool, heur.H6MergeZones)
			s := newSearch(pl, context.Background())
			defer s.stop()
			s.bindState(rs, pool)
			layers := core.SplitLayers(cfg.Layers, pp)
			tk := s.taskFor(0)
			tk.reset(rs, mbs)
			tk.init(layers)
			tk.costLean = costLean
			tk.resetMemo(d, nb)
			if got := rs.packedKey(0, 0, &tk.caps).spill != ""; got != shape.spill {
				t.Fatalf("case %d: spill key = %v, want %v", n, got, shape.spill)
			}
			if !clamp {
				tk.caps = *unclamped(rs, pp)
			}
			node := tk.solveDP(&tk.rs, layers, 0, 0, d, mbs, nb, 0)
			var b []byte
			for c := node; c != nil; c = c.next {
				b = appendChoiceSig(b, c.choice)
			}
			if node != nil {
				st = nodeStats{node.straggler, node.sumTime, node.maxSync, node.rateUSD}
			}
			return string(b), st, tk.explored
		}
		sig, st, explored := solve(true)
		fullSig, fullSt, fullExplored := solve(false)
		if sig != fullSig || st != fullSt {
			t.Errorf("case %d (pool %s, pp %d, mbs %d, d %d, heur %+v, %v, cost-lean %v): clamped %q %+v, unclamped %q %+v",
				n, pool, pp, mbs, d, heur, obj, costLean, sig, st, fullSig, fullSt)
		}
		if explored > fullExplored {
			t.Errorf("case %d: clamped keys explored %d nodes, unclamped %d", n, explored, fullExplored)
		}
		clampedN += explored
		fullN += fullExplored
		if sig != "" {
			solved++
		}
	}
	if solved < 60 {
		t.Errorf("only %d of 120 cases found a chain", solved)
	}
	if clampedN >= fullN {
		t.Errorf("the caps clamped nothing: %d nodes explored clamped, %d unclamped", clampedN, fullN)
	}
	t.Logf("%d of 120 cases solved; explored %d clamped, %d unclamped", solved, clampedN, fullN)
}

// TestSuffixCutExact: the DP's capacity cut (suffixFits) removes only states
// that have no completion. For small random pools × (pp, mbs, d), random
// walks through stageCombos/applyChoice visit reachable states (i, ri,
// availability); wherever the bound fails, a plain recursion over
// stageCombos — no memo, no cut, no dominance — must find no placement of
// the remaining stages. Pools of 0-12 GPUs per cell over one zone, two
// zones of one region or two regions keep the cut firing; H2 off widens the
// TP spans to the node size, H6 off keys zones as buckets. Both objectives
// and the cost-lean pass run, and at each case's root solveDP must find a
// chain exactly when the oracle finds a placement.
func TestSuffixCutExact(t *testing.T) {
	cfg := model.OPT350M()
	gpus := []core.GPUType{core.A100, core.V100}
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := sim.New(cfg, prof)
	shapes := [][]core.Zone{{zoneA}, {zoneA, zoneB}, {zoneA, zoneEU}}
	rng := rand.New(rand.NewSource(11))
	var states, cut, solved int
	for n := 0; n < 120; n++ {
		heur := AllHeuristics()
		heur.H6MergeZones = n%2 == 0
		heur.H2MinTP = n%4 < 2
		pool := cluster.NewPool()
		for _, z := range shapes[n%len(shapes)] {
			for _, g := range gpus {
				pool.Set(z, g, rng.Intn(13))
			}
		}
		pp := []int{2, 3, 4, 6}[rng.Intn(4)]
		mbs := []int{1, 2, 4}[rng.Intn(3)]
		d := []int{1, 2, 4}[rng.Intn(3)]
		obj := []core.Objective{core.MaxThroughput, core.MinCost}[n/4%2]
		nb := memory.Microbatches(cfg.GlobalBatch, d, mbs)
		layers := core.SplitLayers(cfg.Layers, pp)

		pl := New(cfg, ev, Options{Objective: obj, Heuristics: heur, Workers: 1})
		rs := newRegionState(pool, heur.H6MergeZones)
		s := newSearch(pl, context.Background())
		s.bindState(rs, pool)
		tk := s.taskFor(0)
		tk.reset(rs, mbs)
		tk.init(layers)
		tk.costLean = n%3 == 0
		tk.resetMemo(d, nb)

		var placeable func(i, ri int) bool
		placeable = func(i, ri int) bool {
			if i == pp {
				return true
			}
			for r := ri; r < len(tk.rs.regions); r++ {
				for _, c := range tk.stageCombos(&tk.rs, r, i, d) {
					applyChoice(&tk.rs, c)
					ok := placeable(i+1, r)
					undoChoice(&tk.rs, c)
					if ok {
						return true
					}
				}
			}
			return false
		}
		want := placeable(0, 0)
		if got := tk.solveDP(&tk.rs, layers, 0, 0, d, mbs, nb, 0) != nil; got != want {
			t.Errorf("case %d (pool %s, pp %d, d %d): solveDP found a chain = %v, oracle = %v", n, pool, pp, d, got, want)
		}
		if want {
			solved++
		}

		var next []stageChoice
		for walk := 0; walk < 20; walk++ {
			tk.reset(rs, mbs)
			for i, ri := 0, 0; i < pp; i++ {
				states++
				if !tk.suffixFits(&tk.rs, i, ri, d, pp) {
					cut++
					if placeable(i, ri) {
						var left []int
						for r := range tk.rs.regions {
							for ti := range tk.rs.types {
								left = append(left, tk.rs.count(r, ti))
							}
						}
						t.Fatalf("case %d (pool %s, pp %d, mbs %d, d %d, heur %+v): cut state (stage %d, region %d, counts %v) has a placement",
							n, pool, pp, mbs, d, heur, i, ri, left)
					}
				}
				next = next[:0]
				for r := ri; r < len(tk.rs.regions); r++ {
					next = append(next, tk.stageCombos(&tk.rs, r, i, d)...)
				}
				if len(next) == 0 {
					break
				}
				c := next[rng.Intn(len(next))]
				applyChoice(&tk.rs, c)
				ri = c.region
			}
		}
	}
	if cut*5 < states {
		t.Errorf("the cut fired in only %d of %d visited states", cut, states)
	}
	if solved < 30 {
		t.Errorf("only %d of 120 cases have a placement", solved)
	}
	t.Logf("%d of 120 cases placeable; cut %d of %d visited states", solved, cut, states)
}
