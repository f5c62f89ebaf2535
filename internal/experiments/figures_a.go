package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/trace"
)

// Figure1 regenerates the motivation figure: OPT-350M throughput and cost
// across homogeneous, heterogeneous, multi-zone and multi-region
// configurations c0-c6.
func Figure1(o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.A100, core.V100)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "fig1",
		Title:   "OPT-350M throughput/cost across configurations (paper Fig. 1)",
		Headers: []string{"config", "description", "iters/sec", "USD/iter"},
	}

	addPlanned := func(label, desc string, pool *cluster.Pool) (core.Estimate, error) {
		_, meas, err := l.sailorDeploy(pool, core.MaxThroughput, core.Constraints{})
		if err != nil {
			return core.Estimate{}, err
		}
		t.Rows = append(t.Rows, []string{label, desc, fmtF(meas.Throughput(), 3), fmtF(meas.Cost(), 2)})
		return meas, nil
	}
	addMeasured := func(label, desc string, plan core.Plan) error {
		meas, err := l.gt.Measure(plan)
		if err != nil {
			return err
		}
		tput := fmtF(meas.Throughput(), 3)
		if !meas.FitsMemory {
			tput = "OOM"
		}
		t.Rows = append(t.Rows, []string{label, desc, tput, fmtF(meas.Cost(), 2)})
		return nil
	}

	if _, err := addPlanned("c0", "16 A100, 1 zone", cluster.NewPool().Set(zoneC1a, core.A100, 16)); err != nil {
		return t, err
	}
	if _, err := addPlanned("c1", "16 V100, 1 zone", cluster.NewPool().Set(zoneC1a, core.V100, 16)); err != nil {
		return t, err
	}
	if _, err := addPlanned("c2", "32 A100, 1 zone (unattainable)", cluster.NewPool().Set(zoneC1a, core.A100, 32)); err != nil {
		return t, err
	}
	if _, err := addPlanned("c3", "16 A100 + 16 V100, 1 zone",
		cluster.NewPool().Set(zoneC1a, core.A100, 16).Set(zoneC1a, core.V100, 16)); err != nil {
		return t, err
	}
	c4res, err := l.sailor(core.MaxThroughput, core.Constraints{}).Plan(
		cluster.NewPool().Set(zoneC1a, core.A100, 16).Set(zoneC1b, core.A100, 16))
	if err != nil {
		return t, err
	}
	if err := addMeasured("c4", "32 A100, 2 zones / 1 region", c4res.Plan); err != nil {
		return t, err
	}

	// c5: the same 16+16 heterogeneous resources as c3 with a bad
	// parallelization plan — deep pipeline alternating types, tiny mbs.
	bad := core.Plan{MicroBatchSize: 1}
	layers := []int{3, 3, 3, 3, 3, 3, 3, 3}
	first := 0
	for i, n := range layers {
		g := core.A100
		if i%2 == 1 {
			g = core.V100
		}
		bad.Stages = append(bad.Stages, core.StagePlan{
			FirstLayer: first, NumLayers: n,
			Replicas: []core.StageReplica{
				{GPU: g, TP: 2, Zone: zoneC1a}, {GPU: g, TP: 2, Zone: zoneC1a},
			},
		})
		first += n
	}
	if err := addMeasured("c5", "16 A100 + 16 V100, bad plan", bad); err != nil {
		return t, err
	}

	// c6: c4's plan spread across two regions instead of two zones.
	c6 := c4res.Plan
	c6.Stages = append([]core.StagePlan(nil), c4res.Plan.Stages...)
	for i := range c6.Stages {
		reps := append([]core.StageReplica(nil), c6.Stages[i].Replicas...)
		for j := range reps {
			if reps[j].Zone == zoneC1b {
				reps[j].Zone = zoneW1a
			}
		}
		c6.Stages[i].Replicas = reps
	}
	if err := addMeasured("c6", "32 A100, 2 regions", c6); err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		"paper shape: c3/c4 beat c0; c5 wastes the same GPUs as c3; c6 costs more than c4")
	return t, nil
}

// Figure2 regenerates the A100 availability trace (two GCP zones, 8 hours).
func Figure2(o Opts) (Table, error) {
	tr, zoneA, zoneB := trace.GCPA100Trace(42)
	t := Table{
		ID:      "fig2",
		Title:   "A100 availability over 8h, 8 requested per zone (paper Fig. 2)",
		Headers: []string{"hour", zoneA.Name, zoneB.Name},
	}
	for at := time.Duration(0); at <= tr.Horizon; at += 30 * time.Minute {
		t.Rows = append(t.Rows, []string{
			fmtF(at.Hours(), 1),
			fmt.Sprintf("%d", tr.CountAt(at, zoneA, core.A100)),
			fmt.Sprintf("%d", tr.CountAt(at, zoneB, core.A100)),
		})
	}
	t.Notes = append(t.Notes, "synthetic regeneration of the April-2024 GCP trace shape (trace.GCPA100Trace)")
	return t, nil
}

// Figure3 regenerates the peak-memory comparison on GH200 nodes: five
// OPT-350M configurations, each baseline's estimate vs the real footprint.
func Figure3(o Opts) (Table, error) {
	type config struct {
		label           string
		gbs             int
		dp, pp, tp, mbs int
	}
	// Labels follow the paper's N-gbs / dp-pp-mbs axis annotations; tp is
	// implied by N*4 GPUs / (dp*pp).
	configs := []config{
		{"2-32/2-1-2", 32, 2, 1, 4, 2},
		{"4-64/2-2-1", 64, 2, 2, 4, 1},
		{"8-512/2-4-8", 512, 2, 4, 4, 8},
		{"16-1024/16-1-8", 1024, 16, 1, 4, 8},
		{"16-1024/8-2-8", 1024, 8, 2, 4, 8},
	}
	base := model.OPT350M()
	t := Table{
		ID:      "fig3",
		Title:   "Peak memory estimates vs real, OPT-350M on GH200 (paper Fig. 3), GB",
		Headers: []string{"config", "AMP", "Varuna", "Piper", "Metis", "FlashFlex", "Sailor", "Real"},
	}
	for _, c := range configs {
		cfg := base
		cfg.GlobalBatch = c.gbs
		l, err := newLab(cfg, o, core.GH200)
		if err != nil {
			return t, err
		}
		plan := uniformPlan(cfg, core.GH200, onprem, c.pp, c.dp, c.tp, c.mbs)
		row := []string{c.label}
		for _, name := range []string{"AMP", "Varuna", "Piper", "Metis", "FlashFlex"} {
			p, err := baselines.ByName(l.env, name)
			if err != nil {
				return t, err
			}
			est, ok := p.Estimator().PeakMemory(plan)
			if !ok {
				row = append(row, "n/a")
				continue
			}
			row = append(row, fmtF(float64(est)/(1<<30), 1))
		}
		peak, _, _, err := memory.Check(cfg, plan)
		if err != nil {
			return t, err
		}
		row = append(row, fmtF(float64(peak)/(1<<30), 1))
		meas, err := l.gt.Measure(plan)
		if err != nil {
			return t, err
		}
		row = append(row, fmtF(float64(meas.PeakMemory)/(1<<30), 1))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper shape: baselines 25-95% off; Sailor within ~6% of real")
	return t, nil
}

// estimationSweep runs the Figure 5/6 methodology: a sweep of plans, each
// estimator's error vs ground truth, summarised as box statistics.
func estimationSweep(cfg model.Config, plans []core.Plan, gpus []core.GPUType, o Opts, memMode bool, id, title string) (Table, error) {
	l, err := newLab(cfg, o, gpus...)
	if err != nil {
		return Table{}, err
	}
	names := []string{"Piper", "Varuna", "Aceso", "Metis", "FlashFlex"}
	stats := map[string]*errStats{"Sailor": {}}
	for _, n := range names {
		stats[n] = &errStats{}
	}
	used := 0
	for _, plan := range plans {
		meas, err := l.gt.Measure(plan)
		if err != nil || !meas.FitsMemory {
			continue // only deployable configs can be measured, as on a testbed
		}
		used++
		for _, n := range names {
			p, err := baselines.ByName(l.env, n)
			if err != nil {
				return Table{}, err
			}
			if memMode {
				est, ok := p.Estimator().PeakMemory(plan)
				if ok {
					stats[n].add(float64(est), float64(meas.PeakMemory))
				}
			} else {
				est, err := p.Estimator().IterTime(plan)
				if err == nil {
					stats[n].add(est, meas.IterTime)
				}
			}
		}
		if memMode {
			peak, _, _, err := memory.Check(cfg, plan)
			if err == nil {
				stats["Sailor"].add(float64(peak), float64(meas.PeakMemory))
			}
		} else {
			est, err := l.sim.Estimate(plan)
			if err == nil {
				stats["Sailor"].add(est.IterTime, meas.IterTime)
			}
		}
	}
	t := Table{
		ID:      id,
		Title:   title,
		Headers: []string{"planner", "min%", "median%", "mean%", "max%", "n"},
	}
	for _, n := range append(names, "Sailor") {
		t.Rows = append(t.Rows, stats[n].row(n))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d deployable configurations in the sweep", used))
	return t, nil
}

// gh200Sweep is the homogeneous plan sweep behind Figures 5a/5b.
func gh200Sweep(cfg model.Config) []core.Plan {
	var plans []core.Plan
	for _, pp := range []int{1, 2, 4, 8} {
		for _, dp := range []int{1, 2, 4} {
			for _, tp := range []int{1, 2, 4} {
				for _, mbs := range []int{1, 2, 4} {
					if cfg.GlobalBatch < dp*mbs {
						continue
					}
					plans = append(plans, uniformPlan(cfg, core.GH200, onprem, pp, dp, tp, mbs))
				}
			}
		}
	}
	return plans
}

// Figure5a regenerates the homogeneous peak-memory estimation-error boxes.
func Figure5a(o Opts) (Table, error) {
	cfg := model.OPT350M()
	return estimationSweep(cfg, gh200Sweep(cfg), []core.GPUType{core.GH200}, o, true,
		"fig5a", "Peak-memory estimation error, GH200 homogeneous (paper Fig. 5a)")
}

// Figure5b regenerates the homogeneous iteration-time estimation-error boxes.
func Figure5b(o Opts) (Table, error) {
	cfg := model.OPT350M()
	return estimationSweep(cfg, gh200Sweep(cfg), []core.GPUType{core.GH200}, o, false,
		"fig5b", "Iteration-time estimation error, GH200 homogeneous (paper Fig. 5b)")
}

// Figure6 regenerates the heterogeneous iteration-time error boxes on the
// RTX cluster (2x8 Titan-RTX, 3x8 RTX-2080, 2x8 RTX-3090).
func Figure6(o Opts) (Table, error) {
	cfg := model.OPT350M()
	types := []core.GPUType{core.TitanRTX, core.RTX2080, core.RTX3090}
	var plans []core.Plan
	// Mixed-type pipelines: each stage on a different GPU type, varying
	// depth, DP, TP and microbatch size.
	for _, pp := range []int{2, 3} {
		for _, dp := range []int{1, 2} {
			for _, tp := range []int{2, 4, 8} {
				for _, mbs := range []int{1, 2} {
					plan := core.Plan{MicroBatchSize: mbs}
					layers := splitLayers(cfg.Layers, pp)
					first := 0
					for i := 0; i < pp; i++ {
						g := types[i%len(types)]
						st := core.StagePlan{FirstLayer: first, NumLayers: layers[i]}
						for k := 0; k < dp; k++ {
							st.Replicas = append(st.Replicas, core.StageReplica{GPU: g, TP: tp, Zone: onprem})
						}
						plan.Stages = append(plan.Stages, st)
						first += layers[i]
					}
					plans = append(plans, plan)
				}
			}
		}
	}
	return estimationSweep(cfg, plans, types, o, false,
		"fig6", "Iteration-time estimation error, heterogeneous RTX cluster (paper Fig. 6)")
}

func splitLayers(l, p int) []int {
	out := make([]int, p)
	base, rem := l/p, l%p
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Figure7 regenerates the homogeneous planner comparison: OPT-350M on 32,
// 80, and 128 A100 GPUs in one zone, every planner deployed on the
// ground-truth cluster.
func Figure7(o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.A100)
	if err != nil {
		return Table{}, err
	}
	sizes := []int{32, 80, 128}
	if o.Quick {
		sizes = []int{32}
	}
	t := Table{
		ID:      "fig7",
		Title:   "Homogeneous A100 planner comparison, OPT-350M iters/sec (paper Fig. 7)",
		Headers: append([]string{"planner"}, colLabels(sizes, "%d A100")...),
	}
	names := []string{"Varuna", "AMP", "Piper", "Galvatron", "Aceso", "FlashFlex", "Metis", "DTFM"}
	rows := map[string][]string{}
	for _, n := range append(names, "Sailor") {
		rows[n] = []string{n}
	}
	for _, size := range sizes {
		pool := cluster.NewPool().Set(zoneC1a, core.A100, size)
		for _, n := range names {
			p, err := baselines.ByName(l.env, n)
			if err != nil {
				return t, err
			}
			d, err := baselines.Deploy(p, pool, l.gt)
			if err != nil {
				rows[n] = append(rows[n], "X")
				continue
			}
			rows[n] = append(rows[n], fmtF(d.Measured.Throughput(), 3))
		}
		_, meas, err := l.sailorDeploy(pool, core.MaxThroughput, core.Constraints{})
		if err != nil {
			rows["Sailor"] = append(rows["Sailor"], "X")
		} else {
			rows["Sailor"] = append(rows["Sailor"], fmtF(meas.Throughput(), 3))
		}
	}
	for _, n := range append(names, "Sailor") {
		t.Rows = append(t.Rows, rows[n])
	}
	t.Notes = append(t.Notes, "paper shape: Sailor highest; Varuna often X (2D + bad memory model)")
	return t, nil
}

func colLabels(sizes []int, format string) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf(format, s)
	}
	return out
}
