package planner

// The multi-region cold-plan oracle: the plan, iteration time and cost of
// cold searches over pools that span several region buckets, where the DP
// sees the most distinct suffix states. The golden predates the
// region-scoped memo key (it was generated while every key still carried
// all regions' counts), so it pins that scoping the key to the regions a
// suffix can still use changed no plan, estimate or tie-break. Regenerate it
// only for an intended change in which plans the planner picks:
//
//	go test ./internal/planner -run TestMultiRegionColdGolden -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/profiler"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the planner goldens")

// goldenCase is one cold search of the oracle.
type goldenCase struct {
	name string
	pool *cluster.Pool
	obj  core.Objective
	cons core.Constraints
	heur Heuristics
}

// Zones of the wider pools below.
var (
	zoneEU   = cluster.GCPZone("europe-west4", 'a')
	zoneEast = cluster.GCPZone("us-east1", 'b')
	zoneAsia = cluster.GCPZone("asia-east1", 'a')
	zoneC    = cluster.GCPZone("us-central1", 'c')
)

// multiRegionCases returns the oracle's searches:
//   - the first 24 points of the cold-hetero benchmark lattice: 8-32 A100
//     and 8-32 V100 in two us-central1 zones plus 0-16 A100 in
//     europe-west4, point i being combination i*4409 mod 10625, every third
//     minimising cost under a 0.08 it/s floor;
//   - a five-region pool (ten cells, too wide for the inline key), under
//     both objectives;
//   - a three-zone pool searched zone by zone (H6 off).
func multiRegionCases() []goldenCase {
	var cases []goldenCase
	for i := 0; i < 24; i++ {
		k := i * 4409 % 10625
		pool := cluster.NewPool().Set(zoneA, core.A100, 8+k%25).Set(zoneB, core.V100, 8+k/25%25)
		if remote := k / 625; remote > 0 {
			pool.Set(zoneEU, core.A100, remote)
		}
		c := goldenCase{name: fmt.Sprintf("lattice-%02d", i), pool: pool, obj: core.MaxThroughput, heur: AllHeuristics()}
		if i%3 == 2 {
			c.obj, c.cons = core.MinCost, core.Constraints{MinThroughput: 0.08}
		}
		cases = append(cases, c)
	}
	five := fiveRegionPool()
	cases = append(cases,
		goldenCase{name: "five-region/max-throughput", pool: five, obj: core.MaxThroughput, heur: AllHeuristics()},
		goldenCase{name: "five-region/min-cost", pool: five, obj: core.MinCost,
			cons: core.Constraints{MinThroughput: 0.03}, heur: AllHeuristics()})
	zones := cluster.NewPool().
		Set(zoneA, core.A100, 12).Set(zoneA, core.V100, 4).
		Set(zoneB, core.A100, 4).Set(zoneB, core.V100, 12).
		Set(zoneC, core.A100, 8).Set(zoneC, core.V100, 8)
	h := AllHeuristics()
	h.H6MergeZones = false
	return append(cases, goldenCase{name: "three-zone/no-h6", pool: zones, obj: core.MaxThroughput, heur: h})
}

// fiveRegionPool spreads A100 and V100 over five regions: ten availability
// cells, so its DP memo keys take the spill encoding.
func fiveRegionPool() *cluster.Pool {
	return cluster.NewPool().
		Set(zoneA, core.A100, 4).Set(zoneA, core.V100, 4).
		Set(zoneEU, core.A100, 2).Set(zoneEU, core.V100, 2).
		Set(zoneW, core.A100, 2).Set(zoneW, core.V100, 2).
		Set(zoneEast, core.A100, 2).Set(zoneEast, core.V100, 2).
		Set(zoneAsia, core.A100, 2).Set(zoneAsia, core.V100, 2)
}

// goldenEvaluator profiles cfg on A100 and V100 and returns the simulator
// the goldens search against.
func goldenEvaluator(t *testing.T, cfg model.Config) Evaluator {
	t.Helper()
	prof, err := profiler.Collect(cfg, []core.GPUType{core.A100, core.V100}, nil, profiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(cfg, prof)
}

// renderCases plans every case cold at the given worker count and renders
// one line per case: the plan and its estimate's iteration time and cost at
// full precision.
func renderCases(t *testing.T, cfg model.Config, ev Evaluator, cases []goldenCase, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, c := range cases {
		pl := New(cfg, ev, Options{Objective: c.obj, Constraints: c.cons, Heuristics: c.heur, Workers: workers})
		res, err := pl.Plan(c.pool)
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", c.name, workers, err)
		}
		fmt.Fprintf(&b, "%s %s iter=%.17g cost=%.17g\n", c.name, res.Plan, res.Estimate.IterTime, res.Estimate.Cost())
	}
	return b.String()
}

func TestMultiRegionColdGolden(t *testing.T) {
	cfg := model.OPT350M()
	ev := goldenEvaluator(t, cfg)
	cases := multiRegionCases()
	got := renderCases(t, cfg, ev, cases, 1)
	if w4 := renderCases(t, cfg, ev, cases, 4); w4 != got {
		t.Fatalf("plans differ between Workers=1 and Workers=4:\n--- w1 ---\n%s--- w4 ---\n%s", got, w4)
	}
	path := filepath.Join("testdata", "multi-region-cold.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("plans drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// The constrained cold-plan oracle: the plan, iteration time and cost of
// cold searches under every objective and constraint shape — homogeneous,
// heterogeneous and geo-distributed pools, a cost budget, a throughput
// floor, the no-heuristics ablation, and GPT-Neo-2.7B under a Figure-14
// style budget and a Figure-13 style throughput floor. Each case is a
// subtest matched against its own golden line. The golden predates the
// deletion of the scan-level bound pruning, so it pins that the deletion
// changed no plan, estimate or tie-break. Regenerate only for an intended
// change in which plans the planner picks:
//
//	go test ./internal/planner -run TestConstrainedColdGolden -update

// constrainedOPTCases are the OPT-350M searches of the oracle.
func constrainedOPTCases() []goldenCase {
	all := AllHeuristics()
	return []goldenCase{
		{name: "homogeneous-throughput", pool: cluster.NewPool().Set(zoneA, core.A100, 64),
			obj: core.MaxThroughput, heur: all},
		{name: "heterogeneous-throughput", pool: cluster.NewPool().Set(zoneA, core.A100, 32).Set(zoneA, core.V100, 32),
			obj: core.MaxThroughput, heur: all},
		{name: "geo-min-cost", pool: cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneW, core.A100, 16),
			obj: core.MinCost, heur: all},
		{name: "budget-constrained", pool: cluster.NewPool().Set(zoneA, core.A100, 16),
			obj: core.MaxThroughput, cons: core.Constraints{MaxCostPerIter: 0.5}, heur: all},
		{name: "min-throughput-constrained", pool: cluster.NewPool().Set(zoneA, core.A100, 32),
			obj: core.MinCost, cons: core.Constraints{MinThroughput: 0.01}, heur: all},
		{name: "no-heuristics-ablation", pool: cluster.NewPool().Set(zoneA, core.A100, 8).Set(zoneB, core.A100, 8),
			obj: core.MaxThroughput, heur: NoHeuristics()},
	}
}

// constrainedNeoCases are the GPT-Neo-2.7B searches of the oracle, on the
// Figure 13-14 pool shape (two zones of one region, each with A100 and
// V100) at a size where both constraints bind.
func constrainedNeoCases() []goldenCase {
	pool := cluster.NewPool().
		Set(zoneA, core.A100, 48).Set(zoneA, core.V100, 48).
		Set(zoneB, core.A100, 48).Set(zoneB, core.V100, 48)
	return []goldenCase{
		{name: "neo-fig14-budget", pool: pool, obj: core.MaxThroughput,
			cons: core.Constraints{MaxCostPerIter: 1.2}, heur: AllHeuristics()},
		{name: "neo-fig13-min-cost", pool: pool, obj: core.MinCost,
			cons: core.Constraints{MinThroughput: 0.07}, heur: AllHeuristics()},
	}
}

func TestConstrainedColdGolden(t *testing.T) {
	path := filepath.Join("testdata", "constrained-cold.golden")
	want := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if name, _, ok := strings.Cut(line, " "); ok {
				want[name] = line
			}
		}
	}
	var got strings.Builder
	n := 0
	for _, m := range []struct {
		cfg   model.Config
		cases []goldenCase
	}{
		{model.OPT350M(), constrainedOPTCases()},
		{model.GPTNeo27B(), constrainedNeoCases()},
	} {
		ev := goldenEvaluator(t, m.cfg)
		for _, c := range m.cases {
			n++
			t.Run(c.name, func(t *testing.T) {
				line := renderCases(t, m.cfg, ev, []goldenCase{c}, 1)
				if w4 := renderCases(t, m.cfg, ev, []goldenCase{c}, 4); w4 != line {
					t.Fatalf("plans differ between Workers=1 and Workers=4:\n%s%s", line, w4)
				}
				got.WriteString(line)
				if !*update && line != want[c.name] {
					t.Errorf("plan drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, line, want[c.name])
				}
			})
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(want) != n {
		t.Errorf("golden %s holds %d cases, the oracle has %d", path, len(want), n)
	}
}
