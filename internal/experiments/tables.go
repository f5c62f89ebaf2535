package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/runtime"
)

// Table1 regenerates the planner overview: support matrix plus search time
// for OPT-350M on 128 A100 GPUs.
func Table1(o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.A100)
	if err != nil {
		return Table{}, err
	}
	pool := cluster.NewPool().Set(zoneC1a, core.A100, 128)
	t := Table{
		ID:      "tab1",
		Title:   "Planner support matrix + search time, 128 A100, OPT-350M (paper Table 1)",
		Headers: []string{"planner", "support", "search time"},
	}
	for _, p := range baselines.All(l.env) {
		r, err := p.Rank(pool)
		st := "error"
		if err == nil {
			st = r.SearchTime.Round(time.Millisecond).String()
			if r.SearchTime >= l.env.Deadline {
				st += " (capped)"
			}
		}
		t.Rows = append(t.Rows, []string{p.Name(), p.Caps().String(), st})
	}
	res, err := l.sailor(core.MaxThroughput, core.Constraints{}).Plan(pool)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"Sailor", "3D, alloc:yes, hetero:yes, multizone:yes",
		res.SearchTime.Round(time.Millisecond).String()})
	t.Notes = append(t.Notes,
		fmt.Sprintf("slow searchers capped at %v (paper caps Metis at 300s; Metis/Oobleck are hours uncapped)", l.env.Deadline))
	return t, nil
}

// Table2 regenerates the search times of the Figure 9b grid: GPT-Neo-2.7B
// on 25/75 A100:V100 pools.
func Table2(o Opts) (Table, error) {
	cfg := model.GPTNeo27B()
	l, err := newLab(cfg, o, core.A100, core.V100)
	if err != nil {
		return Table{}, err
	}
	sizes := [][2]int{{32, 96}, {80, 240}, {128, 384}}
	if o.Quick {
		sizes = [][2]int{{32, 96}}
	}
	t := Table{
		ID:      "tab2",
		Title:   "Search times (s) for the Fig. 9b grid, GPT-Neo-2.7B (paper Table 2)",
		Headers: append([]string{"planner"}, sizeLabels(sizes)...),
	}
	rows := map[string][]string{}
	order := []string{"AMP", "FlashFlex", "Metis", "Sailor"}
	for _, n := range order {
		rows[n] = []string{n}
	}
	for _, sz := range sizes {
		pool := cluster.NewPool().Set(zoneC1a, core.A100, sz[0]).Set(zoneC1a, core.V100, sz[1])
		for _, n := range order[:3] {
			p, err := baselines.ByName(l.env, n)
			if err != nil {
				return t, err
			}
			r, err := p.Rank(pool)
			if err != nil {
				rows[n] = append(rows[n], "X")
				continue
			}
			cell := fmtF(r.SearchTime.Seconds(), 2)
			if r.SearchTime >= l.env.Deadline {
				cell += " (capped)"
			}
			rows[n] = append(rows[n], cell)
		}
		res, err := l.sailor(core.MaxThroughput, core.Constraints{}).Plan(pool)
		if err != nil {
			rows["Sailor"] = append(rows["Sailor"], "X")
			continue
		}
		rows["Sailor"] = append(rows["Sailor"], fmtF(res.SearchTime.Seconds(), 2))
	}
	for _, n := range order {
		t.Rows = append(t.Rows, rows[n])
	}
	t.Notes = append(t.Notes,
		"paper shape: Metis's search grows combinatorially toward the cap; Sailor stays in tens of seconds at 512 GPUs")
	return t, nil
}

func sizeLabels(sizes [][2]int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%d+%d", s[0], s[1])
	}
	return out
}

// Table3 regenerates the search-time breakdown: dynamic programming alone,
// with heuristics, and with a budget constraint, for GPT-Neo-2.7B with 128
// GPUs per type in one zone.
func Table3(o Opts) (Table, error) {
	cfg := model.GPTNeo27B()
	l, err := newLab(cfg, o, core.A100, core.V100)
	if err != nil {
		return Table{}, err
	}
	n := 128
	if o.Quick {
		n = 32
	}
	t := Table{
		ID:      "tab3",
		Title:   fmt.Sprintf("Sailor search-time breakdown, GPT-Neo-2.7B, %d GPUs/type (paper Table 3)", n),
		Headers: []string{"GPU types", "DP only", "+ heuristics", "+ cost limit"},
	}
	run := func(pool *cluster.Pool, heur planner.Heuristics, cons core.Constraints, cap time.Duration) string {
		pl := planner.New(cfg, l.sim, planner.Options{
			Objective: core.MaxThroughput, Constraints: cons,
			Heuristics: heur, Deadline: cap, Workers: l.workers,
		})
		res, err := pl.Plan(pool)
		if err != nil {
			return fmt.Sprintf(">%s (capped, no plan)", cap)
		}
		cell := fmtSeconds(res.SearchTime)
		if cap > 0 && res.SearchTime >= cap {
			cell += " (capped)"
		}
		return cell
	}
	budget := core.Constraints{MaxCostPerIter: 1.5}
	one := cluster.NewPool().Set(zoneC1a, core.A100, n)
	two := cluster.NewPool().Set(zoneC1a, core.A100, n).Set(zoneC1a, core.V100, n)
	dpOnly := planner.Heuristics{H6MergeZones: true} // Listing-1 DP without H2/H3/H4
	t.Rows = append(t.Rows, []string{"1",
		run(one, dpOnly, core.Constraints{}, o.cap()),
		run(one, planner.AllHeuristics(), core.Constraints{}, 0),
		run(one, planner.AllHeuristics(), budget, 0),
	})
	t.Rows = append(t.Rows, []string{"2",
		run(two, dpOnly, core.Constraints{}, o.cap()),
		run(two, planner.AllHeuristics(), core.Constraints{}, 0),
		run(two, planner.AllHeuristics(), budget, 0),
	})
	t.Notes = append(t.Notes,
		"paper shape: DP-only needs hours (capped here); heuristics bring it to seconds; the budget constraint multiplies search time")
	return t, nil
}

// Scalability regenerates §5.3: Sailor search time across zone counts,
// GPUs per zone, and GPU-type counts.
func Scalability(o Opts) (Table, error) {
	cfg := model.GPTNeo27B()
	l, err := newLab(cfg, o, core.A100, core.V100, core.A10G)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "scale",
		Title:   "Sailor planner scalability (paper §5.3)",
		Headers: []string{"scenario", "GPUs", "search time"},
	}
	run := func(label string, pool *cluster.Pool) error {
		pl := planner.New(cfg, l.sim, planner.Options{
			Objective: core.MaxThroughput, Heuristics: planner.AllHeuristics(),
			Deadline: o.cap(), Workers: l.workers,
		})
		res, err := pl.Plan(pool)
		if err != nil {
			t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d", pool.TotalGPUs()), "no plan"})
			return nil
		}
		cell := res.SearchTime.Round(time.Millisecond).String()
		if res.SearchTime >= o.cap() {
			cell += " (capped)"
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%d", pool.TotalGPUs()), cell})
		return nil
	}
	// Zones sweep, homogeneous A100.
	zones := []core.Zone{zoneC1a, zoneC1b, zoneC1c, zoneW1a, zoneW1b}
	per := 256
	if o.Quick {
		per = 64
	}
	for _, nz := range []int{1, 3, 5} {
		pool := cluster.NewPool()
		for _, z := range zones[:nz] {
			pool.Set(z, core.A100, per)
		}
		if err := run(fmt.Sprintf("%d zones x %d A100", nz, per), pool); err != nil {
			return t, err
		}
	}
	// GPU-type sweep in one zone.
	typeSets := [][]core.GPUType{
		{core.A100},
		{core.A100, core.V100},
		{core.A100, core.V100, core.A10G},
	}
	for _, ts := range typeSets {
		pool := cluster.NewPool()
		for _, g := range ts {
			pool.Set(zoneC1a, g, per)
		}
		if err := run(fmt.Sprintf("%d GPU types x %d", len(ts), per), pool); err != nil {
			return t, err
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: zones barely matter; each extra GPU type inflates search sharply (0.3 -> 6.2 -> 4900s in the paper)")
	return t, nil
}

// Reconfiguration regenerates §5.5: the reconfiguration phase timings when
// a 16-V100 OPT-350M job gains 4 GPUs.
func Reconfiguration(o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.V100)
	if err != nil {
		return Table{}, err
	}
	ctrl := runtime.NewController(runtime.ControllerConfig{
		Planner: l.sailor(core.MaxThroughput, core.Constraints{}),
		GT:      groundtruth.New(cfg),
	})
	defer ctrl.Shutdown()
	if _, err := ctrl.Deploy(cluster.NewPool().Set(zoneC1a, core.V100, 16)); err != nil {
		return Table{}, err
	}
	if _, err := ctrl.TrainFor(300); err != nil {
		return Table{}, err
	}
	ph, err := ctrl.Deploy(cluster.NewPool().Set(zoneC1a, core.V100, 20))
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "reconf",
		Title:   "Reconfiguration phases, 16 -> 20 V100, OPT-350M (paper §5.5)",
		Headers: []string{"phase", "seconds", "paper"},
	}
	t.Rows = [][]string{
		{"planning", fmtF(ph.Planning, 3), "0.1"},
		{"process cleanup", fmtF(ph.Cleanup, 2), "3"},
		{"topology broadcast", fmtF(ph.Broadcast, 2), "1.25"},
		{"comm group init", fmtF(ph.GroupInit, 2), "4.5"},
		{"model/optimizer redefinition", fmtF(ph.ModelRedef, 2), "2"},
		{"dataloader redefinition", fmtF(ph.Dataloader, 2), "0.5"},
		{"total", fmtF(ph.Total(), 2), "~11.4"},
	}
	return t, nil
}
