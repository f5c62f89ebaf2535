package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

// heteroComparison is the engine behind Figures 8-10: A100+V100 pools of
// several sizes, heterogeneous baselines vs Sailor (plus Sailor restricted
// to each homogeneous slice), reporting measured throughput, cost per
// iteration, and OOM plans emitted before a valid one.
func heteroComparison(cfg model.Config, id, title string, sizes [][2]int, o Opts) (Table, error) {
	l, err := newLab(cfg, o, core.A100, core.V100)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      id,
		Title:   title,
		Headers: []string{"cluster", "planner", "iters/sec", "USD/iter", "OOM plans"},
	}
	for _, sz := range sizes {
		a, v := sz[0], sz[1]
		label := fmt.Sprintf("%dxA100+%dxV100", a, v)
		pool := cluster.NewPool().Set(zoneC1a, core.A100, a).Set(zoneC1a, core.V100, v)
		for _, n := range []string{"AMP", "FlashFlex", "Metis"} {
			p, err := baselines.ByName(l.env, n)
			if err != nil {
				return t, err
			}
			d, err := baselines.Deploy(p, pool, l.gt)
			if err != nil {
				t.Rows = append(t.Rows, []string{label, n, "X", "X", fmt.Sprintf("%d", d.OOMPlans)})
				continue
			}
			t.Rows = append(t.Rows, []string{label, n,
				fmtF(d.Measured.Throughput(), 3), fmtF(d.Measured.Cost(), 2), fmt.Sprintf("%d", d.OOMPlans)})
		}
		// Sailor restricted to each homogeneous slice, then the full pool.
		variants := []struct {
			name string
			pool *cluster.Pool
		}{
			{"Sailor-V100", cluster.NewPool().Set(zoneC1a, core.V100, v)},
			{"Sailor-A100", cluster.NewPool().Set(zoneC1a, core.A100, a)},
			{"Sailor", pool},
		}
		for _, vnt := range variants {
			_, meas, err := l.sailorDeploy(vnt.pool, core.MaxThroughput, core.Constraints{})
			if err != nil {
				t.Rows = append(t.Rows, []string{label, vnt.name, "X", "X", "0"})
				continue
			}
			t.Rows = append(t.Rows, []string{label, vnt.name,
				fmtF(meas.Throughput(), 3), fmtF(meas.Cost(), 2), "0"})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: Sailor highest throughput, zero OOM emissions; AMP/FlashFlex OOM-prone on big models")
	return t, nil
}

// Figure8a: OPT-350M, 50% A100 / 50% V100.
func Figure8a(o Opts) (Table, error) {
	sizes := [][2]int{{32, 32}, {80, 80}, {128, 128}}
	if o.Quick {
		sizes = [][2]int{{32, 32}}
	}
	return heteroComparison(model.OPT350M(), "fig8a",
		"Heterogeneous planners, OPT-350M, 50/50 A100:V100 (paper Fig. 8a)", sizes, o)
}

// Figure8b: OPT-350M, 25% A100 / 75% V100.
func Figure8b(o Opts) (Table, error) {
	sizes := [][2]int{{32, 96}, {80, 240}, {128, 384}}
	if o.Quick {
		sizes = [][2]int{{32, 96}}
	}
	return heteroComparison(model.OPT350M(), "fig8b",
		"Heterogeneous planners, OPT-350M, 25/75 A100:V100 (paper Fig. 8b)", sizes, o)
}

// Figure9a: GPT-Neo-2.7B, 50/50.
func Figure9a(o Opts) (Table, error) {
	sizes := [][2]int{{32, 32}, {80, 80}, {128, 128}}
	if o.Quick {
		sizes = [][2]int{{32, 32}}
	}
	return heteroComparison(model.GPTNeo27B(), "fig9a",
		"Heterogeneous planners, GPT-Neo-2.7B, 50/50 A100:V100 (paper Fig. 9a)", sizes, o)
}

// Figure9b: GPT-Neo-2.7B, 25/75.
func Figure9b(o Opts) (Table, error) {
	sizes := [][2]int{{32, 96}, {80, 240}, {128, 384}}
	if o.Quick {
		sizes = [][2]int{{32, 96}}
	}
	return heteroComparison(model.GPTNeo27B(), "fig9b",
		"Heterogeneous planners, GPT-Neo-2.7B, 25/75 A100:V100 (paper Fig. 9b)", sizes, o)
}

// Figure10: the small "real hardware" clusters (8+8 and 8+16 A100/V100).
// Metis's published artefact fails on 24 GPUs (global batch not divisible
// by the GPU count); like the paper, the harness reuses its 16-GPU plan.
func Figure10(o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.A100, core.V100)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig10",
		Title:   "Small heterogeneous clusters, OPT-350M (paper Fig. 10)",
		Headers: []string{"cluster", "planner", "iters/sec", "OOM plans"},
	}
	pools := []struct {
		label string
		a, v  int
	}{
		{"8xA100+8xV100", 8, 8},
		{"8xA100+16xV100", 8, 16},
	}
	var metis16 *baselines.Deployment
	for _, pc := range pools {
		pool := cluster.NewPool().Set(zoneC1a, core.A100, pc.a).Set(zoneC1a, core.V100, pc.v)
		for _, n := range []string{"AMP", "FlashFlex", "Metis"} {
			p, err := baselines.ByName(l.env, n)
			if err != nil {
				return t, err
			}
			if n == "Metis" && pc.a+pc.v == 24 && cfg.GlobalBatch%(pc.a+pc.v) != 0 && metis16 != nil {
				// Paper: "Metis fails to output a plan as it requires the
				// global batch size to be equally divisible by the total
				// number of GPUs. We therefore reuse the plan from the
				// 16 GPU case."
				meas, err := l.gt.Measure(metis16.Plan)
				if err == nil && meas.FitsMemory {
					t.Rows = append(t.Rows, []string{pc.label, "Metis(16-GPU plan)",
						fmtF(meas.Throughput(), 3), "0"})
					continue
				}
			}
			d, err := baselines.Deploy(p, pool, l.gt)
			if err != nil {
				t.Rows = append(t.Rows, []string{pc.label, n, "X", fmt.Sprintf("%d", d.OOMPlans)})
				continue
			}
			if n == "Metis" && pc.a+pc.v == 16 {
				dd := d
				metis16 = &dd
			}
			t.Rows = append(t.Rows, []string{pc.label, n,
				fmtF(d.Measured.Throughput(), 3), fmt.Sprintf("%d", d.OOMPlans)})
		}
		_, meas, err := l.sailorDeploy(pool, core.MaxThroughput, core.Constraints{})
		if err != nil {
			t.Rows = append(t.Rows, []string{pc.label, "Sailor", "X", "0"})
			continue
		}
		t.Rows = append(t.Rows, []string{pc.label, "Sailor", fmtF(meas.Throughput(), 3), "0"})
	}
	t.Notes = append(t.Notes, "paper shape: Sailor 1.08-2x over baselines, zero OOM plans")
	return t, nil
}

// geoComparison drives Figures 11-12: A100-only pools across zones and
// regions, DTFM vs Sailor.
func geoComparison(id, title string, zones []core.Zone, perZone []int, o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.A100)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      id,
		Title:   title,
		Headers: []string{"cluster", "planner", "iters/sec", "USD/iter"},
	}
	for _, n := range perZone {
		label := fmt.Sprintf("%d A100/zone x %d zones", n, len(zones))
		pool := cluster.NewPool()
		for _, z := range zones {
			pool.Set(z, core.A100, n)
		}
		p, err := baselines.ByName(l.env, "DTFM")
		if err != nil {
			return t, err
		}
		d, err := baselines.Deploy(p, pool, l.gt)
		if err != nil {
			t.Rows = append(t.Rows, []string{label, "DTFM", "X", "X"})
		} else {
			t.Rows = append(t.Rows, []string{label, "DTFM",
				fmtF(d.Measured.Throughput(), 3), fmtF(d.Measured.Cost(), 2)})
		}
		_, meas, err := l.sailorDeploy(pool, core.MaxThroughput, core.Constraints{})
		if err != nil {
			t.Rows = append(t.Rows, []string{label, "Sailor", "X", "X"})
			continue
		}
		t.Rows = append(t.Rows, []string{label, "Sailor",
			fmtF(meas.Throughput(), 3), fmtF(meas.Cost(), 2)})
	}
	t.Notes = append(t.Notes,
		"paper shape: Sailor concentrates in one region when extra regions do not help; DTFM spreads everywhere")
	return t, nil
}

// Figure11: 4 zones / 2 regions, 4 and 8 A100 per zone (the paper's real
// GPU experiment).
func Figure11(o Opts) (Table, error) {
	zones := []core.Zone{zoneC1a, zoneC1b, zoneW1a, zoneW1b}
	return geoComparison("fig11",
		"Geo-distributed, 4 zones / 2 regions, OPT-350M (paper Fig. 11)",
		zones, []int{4, 8}, o)
}

// Figure12: 5 zones / 2 regions at larger scales (the paper's simulator
// experiment).
func Figure12(o Opts) (Table, error) {
	zones := []core.Zone{zoneC1a, zoneC1b, zoneC1c, zoneW1a, zoneW1b}
	sizes := []int{8, 16, 32}
	if o.Quick {
		sizes = []int{8}
	}
	return geoComparison("fig12",
		"Geo-distributed, 5 zones / 2 regions, OPT-350M (paper Fig. 12)",
		zones, sizes, o)
}

// constrainedComparison drives Figures 13-14 (fig is the paper's figure
// number): two zones of one region, each with 128 A100 + 128 V100 (32 + 32
// at quick scale); baselines are modified (as in the paper) to rank by the
// constrained objective over their candidate lists. The title states the
// constraint and the per-zone counts that run.
func constrainedComparison(id, fig string, obj core.Objective, cons core.Constraints, o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.A100, core.V100)
	if err != nil {
		return Table{}, err
	}
	n := 128
	if o.Quick {
		n = 32
	}
	pool := cluster.NewPool().
		Set(zoneC1a, core.A100, n).Set(zoneC1a, core.V100, n).
		Set(zoneC1b, core.A100, n).Set(zoneC1b, core.V100, n)
	goal := "Max throughput s.t. cost <= " + fmtF(cons.MaxCostPerIter, 3) + " USD/iter"
	if obj == core.MinCost {
		goal = "Min cost s.t. throughput >= " + fmtF(cons.MinThroughput, 3) + " it/s"
	}
	t := Table{
		ID:      id,
		Title:   fmt.Sprintf("%s, 2 zones x (%d A100 + %d V100) (paper Fig. %s)", goal, n, n, fig),
		Headers: []string{"planner", "iters/sec", "USD/iter"},
	}
	names := []string{"Varuna", "AMP", "Piper", "Galvatron", "Aceso", "FlashFlex", "Metis", "DTFM"}
	for _, name := range names {
		p, err := baselines.ByName(l.env, name)
		if err != nil {
			return t, err
		}
		r, err := p.Rank(pool)
		if err != nil {
			t.Rows = append(t.Rows, []string{name, "X", "X"})
			continue
		}
		// The paper modifies baselines "to rank solutions by iteration
		// cost and only return plans within the constraints" — using
		// their own estimators, so estimator flaws propagate into the
		// choice. The chosen plan is then deployed and measured.
		bestIdx, bestEstCost, bestEstTput := -1, 0.0, 0.0
		for i, c := range r.Candidates {
			estCost := estimatedCost(l, c.Plan, c.EstIterTime)
			if !cons.Satisfied(c.EstIterTime, estCost) {
				continue
			}
			tput := 0.0
			if c.EstIterTime > 0 {
				tput = 1 / c.EstIterTime
			}
			better := bestIdx < 0 ||
				(obj == core.MinCost && estCost < bestEstCost) ||
				(obj == core.MaxThroughput && tput > bestEstTput)
			if better {
				bestIdx, bestEstCost, bestEstTput = i, estCost, tput
			}
		}
		if bestIdx < 0 {
			t.Rows = append(t.Rows, []string{name, "X", "X"})
			continue
		}
		meas, err := l.gt.Measure(r.Candidates[bestIdx].Plan)
		if err != nil || !meas.FitsMemory {
			t.Rows = append(t.Rows, []string{name, "X (OOM)", "X"})
			continue
		}
		t.Rows = append(t.Rows, []string{name, fmtF(meas.Throughput(), 3), fmtF(meas.Cost(), 2)})
	}
	_, meas, err := l.sailorDeploy(pool, obj, cons)
	if err != nil {
		t.Rows = append(t.Rows, []string{"Sailor", "X", "X"})
	} else {
		t.Rows = append(t.Rows, []string{"Sailor", fmtF(meas.Throughput(), 3), fmtF(meas.Cost(), 2)})
	}
	return t, nil
}

// estimatedCost prices a plan's GPUs for the baseline's own predicted
// iteration time — baselines do not model egress, so none is added.
func estimatedCost(l *lab, plan core.Plan, estIterTime float64) float64 {
	c := 0.0
	for _, st := range plan.Stages {
		for _, r := range st.Replicas {
			c += l.sim.Pricing.ComputeUSD(r.GPU, r.GPUCount(), estIterTime)
		}
	}
	return c
}

// Figure13: minimize cost subject to >= 0.2 iters/sec.
func Figure13(o Opts) (Table, error) {
	cons := core.Constraints{MinThroughput: 0.2}
	if o.Quick {
		cons.MinThroughput = 0.05
	}
	t, err := constrainedComparison("fig13", "13", core.MinCost, cons, o)
	if err == nil {
		t.Notes = append(t.Notes,
			"paper shape: Sailor cheapest (40% under Galvatron); here Sailor lands within ~10% of the",
			"post-hoc cheapest because compute cost is nearly flat in DP under per-GPU-hour pricing")
	}
	return t, err
}

// Figure14: maximize throughput subject to <= 1.2 USD/iteration.
func Figure14(o Opts) (Table, error) {
	t, err := constrainedComparison("fig14", "14", core.MaxThroughput, core.Constraints{MaxCostPerIter: 1.2}, o)
	if err == nil {
		t.Notes = append(t.Notes, "paper shape: Sailor 1.65-3x the baselines within budget; DTFM finds nothing")
	}
	return t, err
}
