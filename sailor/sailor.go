// Package sailor is the public API of the Sailor reproduction: a system for
// automating distributed training over dynamic, heterogeneous, and
// geo-distributed clusters (SOSP'25).
//
// The primary entry point is Service, the planner as a multi-tenant
// request/response front door — the paper's long-lived control plane
// (§5.5) that plans and replans many jobs as availability shifts:
//
//	svc := sailor.NewService(sailor.ServiceConfig{})
//	svc.OpenJob("tenant-1", sailor.OPT350M(), []sailor.GPUType{sailor.A100}, 0)
//	res, _ := svc.Plan(ctx, "tenant-1", pool, sailor.MaxThroughput, sailor.Constraints{})
//	res2, _ := svc.Replan(ctx, "tenant-1", res.Plan, shrunkPool, sailor.MaxThroughput, sailor.Constraints{})
//	est, _ := svc.Simulate("tenant-1", res2.Plan)
//	svc.CloseJob("tenant-1")
//
// Tenants whose jobs share a (model, GPU set, seed) shape reuse one
// profiled System behind the front door; each job keeps a private
// warm-start cache for replan continuity; planner concurrency is bounded
// across tenants; and Stats snapshots QPS, cache utilisation, and
// in-flight counts.
//
// Fleet mode (ServiceConfig.Fleet, or SetFleet at runtime) arbitrates one
// shared elastic fleet across all jobs: a concurrent, versioned capacity
// Ledger (internal/fleet) tracks per-job leases, Plan/Replan search the
// ledger's free-capacity view and lease what they return, FleetEvent
// replays availability changes against the fleet and preempts leases in
// deterministic admission order (priority descending, then job name), and
// Rebalance replans every leaseless job warm, in priority order. The sum
// of leased capacity never exceeds fleet capacity at any step, and a
// no-contention fleet of one job plans bit-identically to a solo Service.
// cmd/sailor-replay -fleet -jobs N drives any scenario through a shared
// ledger and prints the per-job reconfiguration ledger. The same surface crosses a wire: cmd/sailor-serve
// hosts a Service over the internal/rpc framing, Dial returns a Client
// implementing the identical API interface, and every message is a
// versioned internal/wire document. The determinism contract holds on
// both paths — a plan or replan obtained through the service is
// byte-identical (wire-encoded, telemetry included; SearchTime is the one
// wall-clock exception) to System.Plan/System.Replan on the same request
// history, at any worker count.
//
// Underneath, System is the single-job library workflow mirroring the
// paper's Figure 4:
//
//	sys, _ := sailor.New(sailor.OPT350M(), []sailor.GPUType{sailor.A100, sailor.V100})
//	pool := sailor.NewPool().Set(sailor.GCPZone("us-central1", 'a'), sailor.A100, 16)
//	res, _ := sys.Plan(pool, sailor.MaxThroughput, sailor.Constraints{})
//	est, _ := sys.Simulate(res.Plan)   // analytical simulator (§4.3)
//	real, _ := sys.Measure(res.Plan)   // ground-truth engine (testbed substitute)
//	ctrl := sys.NewController()        // elastic training framework (§4.4)
//
// The planner is a parallel search engine: it fans candidate configurations
// across Workers goroutines (sailor.WithWorkers, default runtime.NumCPU())
// and, when the search runs to completion, returns the identical plan at
// any worker count. PlanContext exposes caller-controlled cancellation
// (a cut-off search returns the best plan found so far).
//
// Elastic runs replay availability scenarios: the Scenario* constructors
// (and the name registry behind Scenarios/ScenarioByName) synthesize
// seeded trace families — preemption storms, diurnal waves, zone outages,
// staggered heterogeneous arrivals, geo shifts — and System.Replan
// warm-starts the planner from the previously deployed plan, keeping
// completed search results across calls so a churn-driven replan of a pool
// already solved is a lookup. cmd/sailor-replay runs any named scenario and
// prints the reconfiguration ledger.
//
// The package is a facade over the internal profiler, planner, simulator,
// ground truth, and runtime packages.
package sailor

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Re-exported domain types.
type (
	// GPUType identifies a GPU SKU, e.g. sailor.A100.
	GPUType = core.GPUType
	// Zone is a cloud availability zone.
	Zone = core.Zone
	// Plan is a job parallelization plan (§4.2).
	Plan = core.Plan
	// StagePlan is one pipeline stage of a Plan.
	StagePlan = core.StagePlan
	// StageReplica is one data-parallel replica of a stage.
	StageReplica = core.StageReplica
	// Estimate is a simulator or testbed evaluation of a plan.
	Estimate = core.Estimate
	// Objective selects what the planner optimizes.
	Objective = core.Objective
	// Constraints bound feasible plans (budget, throughput floor).
	Constraints = core.Constraints
	// Model describes a transformer training job.
	Model = model.Config
	// Pool is a point-in-time resource availability snapshot.
	Pool = cluster.Pool
	// PlanResult is the planner's output with search telemetry.
	PlanResult = planner.Result
	// Trace is a dynamic-availability trace (paper Fig. 2).
	Trace = trace.Trace
	// TraceEvent is one availability change.
	TraceEvent = trace.Event
	// CapEvent is one demand-autoscaling directive riding a trace: at a
	// timestamp, the fleet's per-job GPU cap moves.
	CapEvent = trace.CapEvent
	// TraceFile is a named external availability trace — the versioned
	// JSON document sailor-replay -trace loads and sailor-advgen writes.
	TraceFile = trace.File
	// Overlay is a composable trace transformation (price spikes,
	// correlated failures, demand autoscaling) layered with ComposeTrace.
	Overlay = trace.Overlay
	// CapPoint is one step of a demand-autoscaling overlay schedule.
	CapPoint = trace.CapPoint
	// Scenario is a named, seeded family of availability traces.
	Scenario = trace.Scenario
	// ScenarioOpts scales a scenario family.
	ScenarioOpts = trace.ScenarioOpts
	// Controller is the elastic training framework's job controller.
	Controller = runtime.Controller
	// Report summarises an elastic training run.
	Report = runtime.Report
	// PhaseTimings is the §5.5 reconfiguration breakdown.
	PhaseTimings = runtime.PhaseTimings
)

// Re-exported constants.
const (
	A100     = core.A100
	V100     = core.V100
	GH200    = core.GH200
	RTX3090  = core.RTX3090
	RTX2080  = core.RTX2080
	TitanRTX = core.TitanRTX
	A10G     = core.A10G
	T4       = core.T4
	H100     = core.H100

	MaxThroughput = core.MaxThroughput
	MinCost       = core.MinCost
)

// OPT350M returns the OPT-350M training job used throughout the paper.
func OPT350M() Model { return model.OPT350M() }

// GPTNeo27B returns the GPT-Neo-2.7B training job.
func GPTNeo27B() Model { return model.GPTNeo27B() }

// OPT13B returns OPT-1.3B.
func OPT13B() Model { return model.OPT13B() }

// GPT2XL returns GPT-2 XL (1.5B).
func GPT2XL() Model { return model.GPT2XL() }

// Llama7B returns a LLaMA-7B-shaped dense decoder (see internal/model for
// the accounting caveat).
func Llama7B() Model { return model.Llama7B() }

// Models returns every built-in model configuration by name.
func Models() map[string]Model { return model.Zoo() }

// ModelByName resolves a zoo model from a tolerant spelling of its name:
// case and punctuation are ignored, so "opt350m", "OPT-350M", and
// "opt-350m" all resolve to the same configuration. CLIs share this
// resolver so every tool accepts the same names for the whole zoo.
func ModelByName(name string) (Model, error) {
	canon := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
				return r
			case r >= 'A' && r <= 'Z':
				return r + ('a' - 'A')
			}
			return -1
		}, s)
	}
	want := canon(name)
	names := make([]string, 0)
	for zooName, m := range Models() {
		if canon(zooName) == want {
			return m, nil
		}
		names = append(names, zooName)
	}
	sort.Strings(names)
	return Model{}, fmt.Errorf("unknown model %q (zoo: %s)", name, strings.Join(names, ", "))
}

// NewPool returns an empty availability pool.
func NewPool() *Pool { return cluster.NewPool() }

// ParseQuota parses the CLI quota syntax — comma-separated zone:gpu:count
// triples like "us-central1-a:A100-40:16,us-central1-b:V100-16:32" — into a
// pool plus the distinct GPU types in first-appearance order. Every CLI
// (sailor-plan -quota, sailor-serve -fleet) shares this parser.
func ParseQuota(s string) (*Pool, []GPUType, error) {
	if s == "" {
		return nil, nil, fmt.Errorf("empty quota; example: us-central1-a:A100-40:16,us-central1-b:V100-16:32")
	}
	pool := NewPool()
	seen := map[GPUType]bool{}
	var gpus []GPUType
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("bad quota entry %q (want zone:gpu:count)", part)
		}
		zoneName := fields[0]
		region := zoneName
		if i := strings.LastIndex(zoneName, "-"); i > 0 {
			region = zoneName[:i]
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return nil, nil, fmt.Errorf("bad count in %q", part)
		}
		g := GPUType(fields[1])
		pool.Set(Zone{Region: region, Name: zoneName}, g, n)
		if !seen[g] {
			seen[g] = true
			gpus = append(gpus, g)
		}
	}
	return pool, gpus, nil
}

// GCPZone names a zone like "us-central1-a".
func GCPZone(region string, letter byte) Zone { return cluster.GCPZone(region, letter) }

// OnPremZone is the synthetic zone for on-premise clusters.
func OnPremZone() Zone { return cluster.OnPrem() }

// GCPA100Trace regenerates the paper's Figure-2-shaped availability trace.
func GCPA100Trace(seed int64) (*Trace, Zone, Zone) { return trace.GCPA100Trace(seed) }

// SyntheticTrace builds a trace from explicit events.
func SyntheticTrace(horizon time.Duration, events ...TraceEvent) *Trace {
	return trace.Synthetic(horizon, events...)
}

// LoadTrace decodes a versioned external trace document (see trace.Load):
// unknown schema versions and kinds are rejected by name, and the decoded
// trace is validated and canonicalized.
func LoadTrace(data []byte) (*TraceFile, error) { return trace.Load(data) }

// LoadTraceCSV imports a CSV availability log and canonicalizes it to the
// same shape LoadTrace produces (see trace.LoadCSV for the layout).
func LoadTraceCSV(data []byte) (*TraceFile, error) { return trace.LoadCSV(data) }

// SaveTrace encodes a trace file as a canonical versioned JSON document —
// equal files marshal to identical bytes.
func SaveTrace(f *TraceFile) ([]byte, error) { return trace.Save(f) }

// ComposeTrace layers overlays over a base trace, left to right, preserving
// the sorted/clamped replay invariants. The base is never mutated.
func ComposeTrace(base *Trace, overlays ...Overlay) *Trace {
	return trace.Compose(base, overlays...)
}

// OverlayPriceSpike squeezes every availability series by `severity` for
// the [start, end] horizon-fraction window, levelling back afterwards.
func OverlayPriceSpike(start, end, severity float64) Overlay {
	return trace.PriceSpike(start, end, severity)
}

// OverlayCorrelatedFailure blacks out the named zones (all zones when none
// are named) for `dur` of the horizon starting at the `at` fraction.
func OverlayCorrelatedFailure(at, dur float64, zones ...Zone) Overlay {
	return trace.CorrelatedFailure(at, dur, zones...)
}

// OverlayDemandAutoscale turns a cap schedule (fractions of the trace's
// peak availability) into CapEvents the fleet replay applies through
// Ledger.SetJobCap.
func OverlayDemandAutoscale(points ...CapPoint) Overlay {
	return trace.DemandAutoscale(points...)
}

// ComposedScenario wraps a base scenario with overlays as a new named
// scenario ("<base>+<overlay>+..."), still a pure function of (seed, opts).
func ComposedScenario(base Scenario, overlays ...Overlay) Scenario {
	return trace.ComposedScenario(base, overlays...)
}

// Scenarios lists every registered availability scenario, sorted by name.
func Scenarios() []Scenario { return trace.Scenarios() }

// ScenarioByName resolves a scenario from its registry name (for CLIs; the
// Scenario* constructors are the typed entry points).
func ScenarioByName(name string) (Scenario, bool) { return trace.ScenarioByName(name) }

// ScenarioGCPA100 is the paper's Figure-2 trace as a runnable scenario.
func ScenarioGCPA100() Scenario { return trace.GCPA100Scenario() }

// ScenarioPreemptionStorm models repeated spot preemptions with burst
// recovery — the canonical warm-start replanning workload.
func ScenarioPreemptionStorm() Scenario { return trace.PreemptionStorm() }

// ScenarioDiurnalWave models a 24-hour capacity wave in hourly steps.
func ScenarioDiurnalWave() Scenario { return trace.DiurnalWave() }

// ScenarioZoneOutage models a full zone blackout with staged recovery.
func ScenarioZoneOutage() Scenario { return trace.ZoneOutage() }

// ScenarioHeteroArrivals models staggered A100/V100 grants with a partial
// preemption.
func ScenarioHeteroArrivals() Scenario { return trace.HeteroArrivals() }

// ScenarioGeoShift models follow-the-sun capacity moving across regions.
func ScenarioGeoShift() Scenario { return trace.GeoShift() }

// System bundles a profiled job: the profiler output plus the simulator and
// ground-truth engine built on it.
type System struct {
	Model   Model
	Profile *profiler.Profile

	// Workers is the planner's search parallelism: how many goroutines
	// explore candidate configurations concurrently. Zero means
	// runtime.NumCPU(). Searches that run to completion choose identical
	// plans at any setting.
	Workers int

	simulator *sim.Simulator
	gt        *groundtruth.Engine
	// warm persists planner state across Replan calls (one cache per
	// System; see planner.WarmCache for the determinism contract).
	warm *planner.WarmCache
}

// Option customises New.
type Option func(*options)

type options struct {
	profSeed uint64
	gtSeed   uint64
	workers  int
}

// WithSeed fixes the deterministic seeds of the synthetic profiler noise
// and ground-truth jitter.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.profSeed, o.gtSeed = seed, seed }
}

// WithWorkers sets the planner's search parallelism (0 = runtime.NumCPU()).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// New profiles the model on every GPU type of the resource pool (§4.1) and
// returns a ready System. Profiling is synthetic in this reproduction (see
// internal/profiler).
func New(m Model, gpus []GPUType, opts ...Option) (*System, error) {
	o := options{profSeed: 1, gtSeed: 1}
	for _, f := range opts {
		f(&o)
	}
	prof, err := profiler.Collect(m, gpus, nil, profiler.Options{Seed: o.profSeed})
	if err != nil {
		return nil, err
	}
	gt := groundtruth.New(m)
	gt.Seed = o.gtSeed
	return &System{
		Model:     m,
		Profile:   prof,
		Workers:   o.workers,
		simulator: sim.New(m, prof),
		gt:        gt,
		warm:      planner.NewWarmCache(),
	}, nil
}

// workerCount resolves the configured search parallelism.
func (s *System) workerCount() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return goruntime.NumCPU()
}

func (s *System) plannerOpts(obj Objective, cons Constraints) planner.Options {
	return planner.Options{
		Objective:   obj,
		Constraints: cons,
		Heuristics:  planner.AllHeuristics(),
		Workers:     s.workerCount(),
	}
}

// Plan searches for a resource allocation and parallelization plan that
// optimizes the objective under the constraints (§4.2). The search runs on
// Workers goroutines.
func (s *System) Plan(pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	return s.PlanContext(context.Background(), pool, obj, cons)
}

// PlanContext is Plan with caller-controlled cancellation: when ctx is
// done the search stops at the next candidate boundary and returns the
// best plan found so far (or an error when nothing valid was found yet).
func (s *System) PlanContext(ctx context.Context, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	pl := planner.New(s.Model, s.simulator, s.plannerOpts(obj, cons))
	return pl.PlanContext(ctx, pool)
}

// Replan is the elastic hot path: plan `pool` warm-started from the plan
// deployed before an availability change. The previous plan seeds a
// fallback incumbent (a cut-off replan never does worse than keeping it
// while it still fits the pool), and the System's persistent warm cache
// answers a pool an earlier search already solved without searching. A warm
// replan that runs to completion returns exactly the plan Plan returns on
// the same pool; PlanResult.CacheHits is 1 when the cache answered.
// Replan is safe to call concurrently with itself and with Plan, but the
// warm cache serves one search at a time: concurrent Replans on one System
// search one after another, and each one's SearchTime includes its wait.
//
// The warm cache binds to the first (objective, constraints) pair that
// replans; calls with a different pair still work but search cold.
func (s *System) Replan(prev Plan, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	return s.ReplanContext(context.Background(), prev, pool, obj, cons)
}

// ReplanContext is Replan with caller-controlled cancellation.
func (s *System) ReplanContext(ctx context.Context, prev Plan, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	opts := s.plannerOpts(obj, cons)
	opts.Warm = s.warm
	pl := planner.New(s.Model, s.simulator, opts)
	return pl.ReplanContext(ctx, prev, pool)
}

// Simulate estimates a plan's iteration time, memory footprint, and cost
// with the analytical simulator (§4.3).
func (s *System) Simulate(plan Plan) (Estimate, error) { return s.simulator.Estimate(plan) }

// Measure runs a plan on the ground-truth engine — the repository's
// substitute for deploying on a real cluster.
func (s *System) Measure(plan Plan) (Estimate, error) { return s.gt.Measure(plan) }

// NewController returns an elastic training controller (§4.4) wired to this
// system's planner, ground truth, and persistent warm-start cache — a
// System.Replan call and a controller replan warm each other up.
func (s *System) NewController() *Controller {
	opts := s.plannerOpts(core.MaxThroughput, Constraints{})
	opts.Warm = s.warm
	pl := planner.New(s.Model, s.simulator, opts)
	return runtime.NewController(runtime.ControllerConfig{Planner: pl, GT: s.gt})
}

// ProfilingOverhead reports the simulated wall-clock cost of the profiling
// campaign ("a couple of minutes", §4.1).
func (s *System) ProfilingOverhead() time.Duration {
	return time.Duration(profiler.Overhead(s.Profile) * float64(time.Second))
}
