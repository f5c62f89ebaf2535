// Package advgen is the adversarial trace generator: a seeded random
// search over availability-event sequences that maximizes a replay-badness
// objective against a real sailor.Service fleet. Where the scenario
// families replay what their authors imagined, advgen hunts the inputs the
// fleet handles worst — and its top candidates are written as external
// trace files, becoming golden regression scenarios that pin the planner's
// behaviour on its own worst cases.
//
// The search is deterministic end to end: candidates are generated and
// mutated from one seeded rng, every evaluation replays through the
// service's deterministic fleet path (same plans, same preemption order at
// any worker count), and elite-pool ties break on the candidate's
// canonical trace-file encoding. The same (config, seed, budget) always
// returns the same top-K traces, which is what lets CI smoke-run the
// generator and assert the top-1 byte-for-byte.
package advgen

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/sailor"
)

// Objective selects what the search maximizes.
type Objective string

const (
	// Downtime counts job-steps spent waiting: after each replay step, every
	// open job left without a lease ("wait" rebalance outcomes).
	Downtime Objective = "downtime"
	// Churn counts lease evictions — availability events and cap squeezes
	// breaking leases.
	Churn Objective = "churn"
	// Replans counts planner searches the fleet is forced into (admissions
	// and warm replans).
	Replans Objective = "replans"
	// WarmMiss maximizes the fraction of forced searches that get no help
	// from the warm cache (zero DP hits) — anti-warm-start traces.
	WarmMiss Objective = "warm-miss"
)

// Objectives lists every search objective.
func Objectives() []Objective { return []Objective{Downtime, Churn, Replans, WarmMiss} }

// ParseObjective resolves an objective name.
func ParseObjective(s string) (Objective, error) {
	for _, o := range Objectives() {
		if string(o) == s {
			return o, nil
		}
	}
	return "", fmt.Errorf("advgen: unknown objective %q (have: %v)", s, Objectives())
}

// Score is the replay-badness measurement of one candidate trace.
type Score struct {
	// Downtime is the total job-steps spent leaseless across the replay.
	Downtime int
	// Churn is the number of lease evictions.
	Churn int
	// Replans is the number of planner searches (admit + replan).
	Replans int
	// WarmMisses counts searches with zero warm-cache hits; Searches is the
	// denominator.
	WarmMisses int
	Searches   int
}

// Value projects the score onto one objective (higher = worse for the
// fleet = better for the adversary).
func (s Score) Value(obj Objective) float64 {
	switch obj {
	case Downtime:
		return float64(s.Downtime)
	case Churn:
		return float64(s.Churn)
	case Replans:
		return float64(s.Replans)
	case WarmMiss:
		if s.Searches == 0 {
			return 0
		}
		return float64(s.WarmMisses) / float64(s.Searches)
	}
	return 0
}

// Candidate is one evaluated trace with its score and canonical encoding.
type Candidate struct {
	Trace *trace.Trace
	Score Score
	// Doc is the canonical trace-file encoding — the deterministic
	// tiebreaker and the bytes a committed worst case is written as.
	Doc []byte
}

// Config parameterizes a search.
type Config struct {
	// Model is the training job every fleet tenant runs.
	Model sailor.Model
	// Zones and GPUs are the alphabet candidate events draw from.
	Zones []core.Zone
	GPUs  []core.GPUType
	// Jobs is the fleet size (job-0 highest priority, like sailor-replay).
	Jobs int
	// Horizon bounds candidate traces.
	Horizon time.Duration
	// MaxGPUs bounds any single event's delta and each cell's initial grant.
	MaxGPUs int
	// MaxEvents bounds a candidate's availability-event count.
	MaxEvents int
	// Objective is what the search maximizes.
	Objective Objective
	// Budget is the number of candidate evaluations (fleet replays).
	Budget int
	// TopK is the elite-pool size — how many worst cases are kept.
	TopK int
	// Seed drives the whole search.
	Seed int64
	// Workers is the planner parallelism of the evaluation service; results
	// are identical at any setting.
	Workers int
	// CapMutations enables demand-autoscaling (cap event) mutations.
	CapMutations bool
	// Log, when set, receives one line per improvement.
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if len(c.Zones) == 0 {
		c.Zones = []core.Zone{
			{Region: "us-central1", Name: "us-central1-a"},
			{Region: "us-central1", Name: "us-central1-b"},
		}
	}
	if len(c.GPUs) == 0 {
		c.GPUs = []core.GPUType{core.A100}
	}
	if c.Jobs <= 0 {
		c.Jobs = 3
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Hour
	}
	if c.MaxGPUs <= 0 {
		c.MaxGPUs = 8
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 24
	}
	if c.Objective == "" {
		c.Objective = Downtime
	}
	if c.Budget <= 0 {
		c.Budget = 32
	}
	if c.TopK <= 0 {
		c.TopK = 2
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Search runs the seeded random search and returns the elite pool, worst
// first. The returned candidates all carry valid canonical trace files.
func Search(cfg Config) ([]Candidate, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := &harness{cfg: cfg}
	if err := h.init(); err != nil {
		return nil, err
	}

	var elites []Candidate
	insert := func(c Candidate) bool {
		elites = append(elites, c)
		sort.Slice(elites, func(i, j int) bool { return h.better(elites[i], elites[j]) })
		if len(elites) > cfg.TopK {
			elites = elites[:cfg.TopK]
		}
		for i := range elites {
			if bytes.Equal(elites[i].Doc, c.Doc) {
				return i == 0
			}
		}
		return false
	}

	for i := 0; i < cfg.Budget; i++ {
		var tr *trace.Trace
		switch {
		case len(elites) == 0 || i < cfg.TopK:
			tr = h.randomTrace(rng)
		case rng.Intn(4) == 0 && len(elites) >= 2:
			tr = h.crossover(rng, elites[rng.Intn(len(elites))].Trace, elites[rng.Intn(len(elites))].Trace)
		case rng.Intn(3) == 0:
			tr = h.splice(rng, elites[rng.Intn(len(elites))].Trace, h.randomTrace(rng))
		default:
			tr = h.mutate(rng, elites[rng.Intn(len(elites))].Trace)
		}
		cand, err := h.evaluate(tr)
		if err != nil {
			// An invalid mutation (e.g. everything mutated away) is skipped,
			// not fatal: the search just spends the evaluation elsewhere.
			continue
		}
		if insert(cand) {
			cfg.Log("eval %d/%d: new worst %s=%.3f (downtime=%d churn=%d replans=%d warm-miss=%d/%d)",
				i+1, cfg.Budget, cfg.Objective, cand.Score.Value(cfg.Objective),
				cand.Score.Downtime, cand.Score.Churn, cand.Score.Replans,
				cand.Score.WarmMisses, cand.Score.Searches)
		}
	}
	if len(elites) == 0 {
		return nil, fmt.Errorf("advgen: no valid candidate in %d evaluations", cfg.Budget)
	}
	return elites, nil
}

// better orders candidates worst-first with deterministic ties: higher
// objective value, then fewer events (a smaller repro is a better repro),
// then lexicographically smaller canonical encoding.
func (h *harness) better(a, b Candidate) bool {
	av, bv := a.Score.Value(h.cfg.Objective), b.Score.Value(h.cfg.Objective)
	if av != bv {
		return av > bv
	}
	if len(a.Trace.Events) != len(b.Trace.Events) {
		return len(a.Trace.Events) < len(b.Trace.Events)
	}
	return bytes.Compare(a.Doc, b.Doc) < 0
}

// harness owns the evaluation service: one sailor.Service reused across the
// whole search (profiled Systems amortized via the service's LRU), with
// jobs and ledger reset per evaluation so every candidate replays from an
// identical cold fleet.
type harness struct {
	cfg  Config
	svc  *sailor.Service
	open bool
}

func (h *harness) init() error {
	h.svc = sailor.NewService(sailor.ServiceConfig{Workers: h.cfg.Workers})
	return nil
}

// reset closes and reopens every job (fresh warm caches and last plans)
// and installs a fresh ledger with the given per-job cap.
func (h *harness) reset(cap int) (*sailor.Ledger, error) {
	if h.open {
		for i := 0; i < h.cfg.Jobs; i++ {
			if err := h.svc.CloseJob(fmt.Sprintf("job-%d", i)); err != nil {
				return nil, err
			}
		}
	}
	led := sailor.NewLedger(sailor.NewPool())
	led.SetJobCap(cap)
	if err := h.svc.SetFleetLedger(led); err != nil {
		return nil, err
	}
	for i := 0; i < h.cfg.Jobs; i++ {
		if err := h.svc.OpenJob(fmt.Sprintf("job-%d", i), h.cfg.Model, h.cfg.GPUs, h.cfg.Jobs-i); err != nil {
			return nil, err
		}
	}
	h.open = true
	return led, nil
}

// evaluate replays one candidate through the fleet — the same merged
// cap/availability step loop as sailor-replay -trace -fleet, including the
// auto cap (half the trace's peak availability) — and scores it.
func (h *harness) evaluate(tr *trace.Trace) (Candidate, error) {
	doc, err := trace.Save(&trace.File{Name: "candidate", Trace: tr})
	if err != nil {
		return Candidate{}, err
	}
	cap := tr.PeakGPUs() / 2
	if cap < 1 {
		cap = 1
	}
	led, err := h.reset(cap)
	if err != nil {
		return Candidate{}, err
	}
	var sc Score
	for _, ts := range tr.Steps() {
		for _, c := range ts.Caps {
			sc.Churn += len(led.SetJobCap(c.GPUs))
		}
		for _, ev := range ts.Events {
			broken, err := h.svc.FleetEvent(ev)
			if err != nil {
				return Candidate{}, err
			}
			sc.Churn += len(broken)
		}
		steps, err := h.svc.Rebalance(context.Background())
		if err != nil {
			return Candidate{}, err
		}
		for _, st := range steps {
			switch st.Action {
			case "wait":
				sc.Downtime++
			default:
				sc.Replans++
				sc.Searches++
				if st.Result != nil && st.Result.CacheHits == 0 {
					sc.WarmMisses++
				}
			}
		}
		if err := led.CheckInvariant(); err != nil {
			return Candidate{}, fmt.Errorf("advgen: candidate broke the ledger invariant at t+%s: %w", ts.At, err)
		}
	}
	return Candidate{Trace: tr, Score: sc, Doc: doc}, nil
}

// quantum is the event-time grid: candidate timestamps are whole minutes,
// keeping committed worst cases human-readable.
const quantum = time.Minute

func (h *harness) randomAt(rng *rand.Rand) time.Duration {
	steps := int(h.cfg.Horizon / quantum)
	return time.Duration(rng.Intn(steps+1)) * quantum
}

func (h *harness) randomEvent(rng *rand.Rand) trace.Event {
	d := 1 + rng.Intn(h.cfg.MaxGPUs)
	if rng.Intn(2) == 0 {
		d = -d
	}
	return trace.Event{
		At:    h.randomAt(rng),
		Zone:  h.cfg.Zones[rng.Intn(len(h.cfg.Zones))],
		GPU:   h.cfg.GPUs[rng.Intn(len(h.cfg.GPUs))],
		Delta: d,
	}
}

// randomTrace seeds a candidate: every (zone, gpu) cell gets an initial
// grant at t=0 (so the fleet has something to lease), then a random event
// tail, then optional cap events.
func (h *harness) randomTrace(rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{Horizon: h.cfg.Horizon}
	for _, z := range h.cfg.Zones {
		for _, g := range h.cfg.GPUs {
			tr.Events = append(tr.Events, trace.Event{
				At: 0, Zone: z, GPU: g, Delta: 1 + rng.Intn(h.cfg.MaxGPUs),
			})
		}
	}
	room := h.cfg.MaxEvents - len(tr.Events)
	if room < 0 {
		room = 0
	}
	n := rng.Intn(room + 1)
	for i := 0; i < n; i++ {
		tr.Events = append(tr.Events, h.randomEvent(rng))
	}
	if h.cfg.CapMutations && rng.Intn(2) == 0 {
		tr.CapEvents = append(tr.CapEvents, trace.CapEvent{
			At: h.randomAt(rng), GPUs: 1 + rng.Intn(h.cfg.MaxGPUs),
		})
	}
	return canonical(tr)
}

// mutate perturbs one aspect of a candidate: move an event in time, rescale
// a delta, add or drop an event, or (when enabled) move the cap schedule.
func (h *harness) mutate(rng *rand.Rand, base *trace.Trace) *trace.Trace {
	tr := base.Clone()
	ops := 4
	if h.cfg.CapMutations {
		ops = 5
	}
	switch rng.Intn(ops) {
	case 0: // move an event in time
		if len(tr.Events) > 0 {
			tr.Events[rng.Intn(len(tr.Events))].At = h.randomAt(rng)
		}
	case 1: // rescale a delta
		if len(tr.Events) > 0 {
			i := rng.Intn(len(tr.Events))
			d := 1 + rng.Intn(h.cfg.MaxGPUs)
			if tr.Events[i].Delta < 0 {
				d = -d
			}
			tr.Events[i].Delta = d
		}
	case 2: // add an event
		if len(tr.Events) < h.cfg.MaxEvents {
			tr.Events = append(tr.Events, h.randomEvent(rng))
		}
	case 3: // drop an event (keep at least one)
		if len(tr.Events) > 1 {
			i := rng.Intn(len(tr.Events))
			tr.Events = append(tr.Events[:i], tr.Events[i+1:]...)
		}
	case 4: // move/add/drop a cap event
		switch {
		case len(tr.CapEvents) > 0 && rng.Intn(3) == 0:
			tr.CapEvents = tr.CapEvents[:len(tr.CapEvents)-1]
		case len(tr.CapEvents) > 0 && rng.Intn(2) == 0:
			tr.CapEvents[rng.Intn(len(tr.CapEvents))].At = h.randomAt(rng)
		default:
			tr.CapEvents = append(tr.CapEvents, trace.CapEvent{
				At: h.randomAt(rng), GPUs: 1 + rng.Intn(h.cfg.MaxGPUs),
			})
		}
	}
	return canonical(tr)
}

// splice copies a random time-window of donor events into the base.
func (h *harness) splice(rng *rand.Rand, base, donor *trace.Trace) *trace.Trace {
	tr := base.Clone()
	if len(donor.Events) == 0 {
		return canonical(tr)
	}
	lo, hi := h.randomAt(rng), h.randomAt(rng)
	if hi < lo {
		lo, hi = hi, lo
	}
	shift := h.randomAt(rng) - lo
	for _, e := range donor.Events {
		if e.At < lo || e.At >= hi || len(tr.Events) >= h.cfg.MaxEvents {
			continue
		}
		e.At += shift
		if e.At < 0 || e.At > tr.Horizon {
			continue
		}
		tr.Events = append(tr.Events, e)
	}
	return canonical(tr)
}

// crossover keeps a's events before a random cut and b's events after it.
func (h *harness) crossover(rng *rand.Rand, a, b *trace.Trace) *trace.Trace {
	cut := h.randomAt(rng)
	tr := &trace.Trace{Horizon: a.Horizon}
	for _, e := range a.Events {
		if e.At < cut {
			tr.Events = append(tr.Events, e)
		}
	}
	for _, e := range b.Events {
		if e.At >= cut {
			tr.Events = append(tr.Events, e)
		}
	}
	for _, c := range a.CapEvents {
		if c.At < cut {
			tr.CapEvents = append(tr.CapEvents, c)
		}
	}
	for _, c := range b.CapEvents {
		if c.At >= cut {
			tr.CapEvents = append(tr.CapEvents, c)
		}
	}
	if len(tr.Events) > h.cfg.MaxEvents {
		tr.Events = tr.Events[:h.cfg.MaxEvents]
	}
	if len(tr.Events) == 0 {
		tr.Events = append(tr.Events, trace.Event{
			At: 0, Zone: h.cfg.Zones[0], GPU: h.cfg.GPUs[0], Delta: 1 + rng.Intn(h.cfg.MaxGPUs),
		})
	}
	return canonical(tr)
}

// canonical clones and canonically sorts a mutated trace (Compose with no
// overlays), so every candidate the harness evaluates is already in the
// order its committed file would replay.
func canonical(tr *trace.Trace) *trace.Trace {
	return trace.Compose(tr)
}
