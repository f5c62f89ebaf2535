package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/trace"
)

// ReplanLab quantifies warm-start replanning on a preemption-storm
// scenario: replaying the storm in event order — one availability snapshot
// per event timestamp, revisits included — it plans every snapshot once
// cold and once through a persistent warm cache filled by the preceding
// replans, reporting search time, explored nodes, cache hits, and whether
// the two chose the same plan (they must — a stored result is a pure
// function of its pool). A snapshot the storm returns to is a stored-result
// hit; a first visit searches as cold planning does.
func ReplanLab(o Opts) (Table, error) {
	cfg := model.OPT350M()
	l, err := newLab(cfg, o, core.A100)
	if err != nil {
		return Table{}, err
	}
	sc, ok := trace.ScenarioByName("preemption-storm")
	if !ok {
		return Table{}, fmt.Errorf("preemption-storm scenario missing")
	}
	tr := sc.Trace(1)
	var pools []*cluster.Pool
	for i, e := range tr.Events {
		if i+1 < len(tr.Events) && tr.Events[i+1].At == e.At {
			continue // events sharing a timestamp make one snapshot
		}
		if p := tr.PoolAt(e.At); p.TotalGPUs() > 0 {
			pools = append(pools, p)
		}
	}
	if o.Quick && len(pools) > 8 {
		pools = pools[:8]
	}

	t := Table{
		ID:    "replan",
		Title: "Warm-start replanning on a preemption storm (scenario engine + WarmCache)",
		Headers: []string{"event", "gpus", "cold time", "warm time", "speedup",
			"cold explored", "warm explored", "cache hits", "same plan"},
	}
	warm := l.sailor(core.MaxThroughput, core.Constraints{})
	warm.Opts.Warm = planner.NewWarmCache()
	var prev core.Plan
	var coldTot, warmTot time.Duration
	for i, pool := range pools {
		cold, err := l.sailor(core.MaxThroughput, core.Constraints{}).Plan(pool)
		if err != nil {
			return t, err
		}
		res, err := warm.Replan(prev, pool)
		if err != nil {
			return t, err
		}
		prev = res.Plan
		coldTot += cold.SearchTime
		warmTot += res.SearchTime
		speedup := "-"
		if res.SearchTime > 0 {
			speedup = fmtF(float64(cold.SearchTime)/float64(res.SearchTime), 1) + "x"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", pool.TotalGPUs()),
			cold.SearchTime.Round(10 * time.Microsecond).String(),
			res.SearchTime.Round(10 * time.Microsecond).String(),
			speedup,
			fmt.Sprintf("%d", cold.Explored),
			fmt.Sprintf("%d", res.Explored),
			fmt.Sprintf("%d", res.CacheHits),
			fmt.Sprintf("%t", res.Plan.String() == cold.Plan.String()),
		})
	}
	if warmTot > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"cumulative: cold %s vs warm %s (%sx) over %d replans; cache holds %d stored results",
			coldTot.Round(time.Millisecond), warmTot.Round(time.Millisecond),
			fmtF(float64(coldTot)/float64(warmTot), 1), len(pools), warm.Opts.Warm.Entries()))
	}
	return t, nil
}
