package planner

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestSuffixKeyIgnoresConsumedRegions pins the invariant the region-scoped
// memo key rests on: solveDP(i, ri) reads only regions ri..R-1, so its key
// ignores the counts of regions before ri and its result does not depend on
// them. A change that lets a suffix read an earlier region (a cross-region
// link cost at DP time, say) must fail here rather than silently change
// plans through a shared memo entry. Both key encodings are covered: a
// three-region pool packs inline, the five-region pool spills.
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
			if got := base.packedKey(0, 0).spill != ""; got != tc.spill {
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
					if base.packedKey(stage, ri) != spent.packedKey(stage, ri) {
						t.Errorf("ri=%d stage=%d: key depends on regions before ri", ri, stage)
					}
					if base.packedKey(stage, ri) == live.packedKey(stage, ri) {
						t.Errorf("ri=%d stage=%d: key ignores region ri", ri, stage)
					}
					if base.packedKey(stage, ri-1) == spent.packedKey(stage, ri-1) {
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
