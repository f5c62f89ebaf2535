// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a pure function returning a Table;
// cmd/sailor-bench prints them and bench_test.go times them. Registry maps
// experiment ids to paper artefacts.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/sim"
)

// Table is one regenerated artefact.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	// Notes records harness-level caveats (deadline caps, substitutions).
	Notes []string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Opts tunes experiment scale so benches stay tractable.
type Opts struct {
	// SlowPlannerCap bounds Metis/Oobleck/no-heuristics searches, like the
	// paper's 300 s Metis cap. Default 10 s.
	SlowPlannerCap time.Duration
	// Quick shrinks cluster sizes for smoke tests.
	Quick bool
	// Workers is the Sailor planner's search parallelism
	// (0 = runtime.NumCPU()). For searches that run to completion the
	// regenerated numbers are identical at any setting and only
	// wall-clock changes; deadline-capped cells (e.g. Table 3's DP-only
	// ablation) report whatever the cutoff allowed, which grows with the
	// worker count.
	Workers int
}

func (o Opts) cap() time.Duration {
	if o.SlowPlannerCap <= 0 {
		return 10 * time.Second
	}
	return o.SlowPlannerCap
}

// --- shared setup -----------------------------------------------------------

var (
	zoneC1a = cluster.GCPZone("us-central1", 'a')
	zoneC1b = cluster.GCPZone("us-central1", 'b')
	zoneC1c = cluster.GCPZone("us-central1", 'c')
	zoneW1a = cluster.GCPZone("us-west1", 'a')
	zoneW1b = cluster.GCPZone("us-west1", 'b')
	onprem  = cluster.OnPrem()
)

// lab bundles the per-model machinery every experiment needs.
type lab struct {
	cfg     model.Config
	prof    *profiler.Profile
	sim     *sim.Simulator
	gt      *groundtruth.Engine
	env     baselines.Env
	workers int
}

func newLab(cfg model.Config, o Opts, gpus ...core.GPUType) (*lab, error) {
	prof, err := profiler.Collect(cfg, gpus, nil, profiler.Options{Seed: 1})
	if err != nil {
		return nil, err
	}
	s := sim.New(cfg, prof)
	return &lab{
		cfg:     cfg,
		prof:    prof,
		sim:     s,
		gt:      groundtruth.New(cfg),
		env:     baselines.Env{Cfg: cfg, Prof: prof, Deadline: o.cap()},
		workers: o.Workers,
	}, nil
}

func (l *lab) sailor(obj core.Objective, cons core.Constraints) *planner.Planner {
	return planner.New(l.cfg, l.sim, planner.Options{
		Objective:   obj,
		Constraints: cons,
		Heuristics:  planner.AllHeuristics(),
		Workers:     l.workers,
		// Safety net only; Sailor's searches finish in seconds.
		Deadline: 2 * time.Minute,
	})
}

// sailorDeploy plans with Sailor and measures the plan on ground truth.
func (l *lab) sailorDeploy(pool *cluster.Pool, obj core.Objective, cons core.Constraints) (planner.Result, core.Estimate, error) {
	res, err := l.sailor(obj, cons).Plan(pool)
	if err != nil {
		return planner.Result{}, core.Estimate{}, err
	}
	meas, err := l.gt.Measure(res.Plan)
	if err != nil {
		return res, core.Estimate{}, err
	}
	return res, meas, nil
}

// fmtF renders a float with sensible precision.
func fmtF(v float64, prec int) string {
	return trimZeros(fmt.Sprintf("%.*f", prec, v))
}

// fmtSeconds renders a duration in seconds to three significant digits, so
// a search of a few milliseconds does not print as "0s".
func fmtSeconds(d time.Duration) string {
	s, prec := d.Seconds(), 2
	if s > 0 {
		prec = max(0, 2-int(math.Floor(math.Log10(s))))
	}
	return fmtF(s, prec) + "s"
}

func trimZeros(s string) string {
	if !strings.Contains(s, ".") {
		return s
	}
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// errStats summarises absolute relative errors (%) as a box-plot row.
type errStats struct{ vals []float64 }

func (e *errStats) add(est, real float64) {
	if real == 0 {
		return
	}
	e.vals = append(e.vals, 100*math.Abs(est-real)/real)
}

func (e *errStats) row(name string) []string {
	if len(e.vals) == 0 {
		return []string{name, "-", "-", "-", "-", "-"}
	}
	v := append([]float64(nil), e.vals...)
	sort.Float64s(v)
	q := func(p float64) float64 {
		idx := p * float64(len(v)-1)
		lo := int(idx)
		hi := lo + 1
		if hi >= len(v) {
			return v[len(v)-1]
		}
		f := idx - float64(lo)
		return v[lo]*(1-f) + v[hi]*f
	}
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	return []string{name,
		fmtF(v[0], 1), fmtF(q(0.5), 1), fmtF(mean, 1), fmtF(v[len(v)-1], 1),
		fmt.Sprintf("%d", len(v)),
	}
}

// uniformPlan builds a homogeneous plan for estimator sweeps.
func uniformPlan(cfg model.Config, g core.GPUType, z core.Zone, pp, dp, tp, mbs int) core.Plan {
	per := cfg.Layers / pp
	rem := cfg.Layers - per*pp
	plan := core.Plan{MicroBatchSize: mbs}
	first := 0
	for i := 0; i < pp; i++ {
		n := per
		if i < rem {
			n++
		}
		st := core.StagePlan{FirstLayer: first, NumLayers: n}
		for k := 0; k < dp; k++ {
			st.Replicas = append(st.Replicas, core.StageReplica{GPU: g, TP: tp, Zone: z})
		}
		plan.Stages = append(plan.Stages, st)
		first += n
	}
	return plan
}

// Registry maps experiment ids to runners, for cmd/sailor-bench.
var Registry = map[string]func(Opts) (Table, error){
	"fig1":   Figure1,
	"fig2":   Figure2,
	"fig3":   Figure3,
	"fig5a":  Figure5a,
	"fig5b":  Figure5b,
	"fig6":   Figure6,
	"fig7":   Figure7,
	"fig8a":  Figure8a,
	"fig8b":  Figure8b,
	"fig9a":  Figure9a,
	"fig9b":  Figure9b,
	"fig10":  Figure10,
	"fig11":  Figure11,
	"fig12":  Figure12,
	"fig13":  Figure13,
	"fig14":  Figure14,
	"tab1":   Table1,
	"tab2":   Table2,
	"tab3":   Table3,
	"scale":  Scalability,
	"reconf": Reconfiguration,
	"replan": ReplanLab,
}

// IDs returns registry keys in stable order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
