package sailor

// Service is the multi-tenant front door of the planner: the paper's
// long-lived control plane (§5.5) that plans and replans many jobs as
// availability shifts, reshaped as a request/response API that can cross a
// wire. Tenants open named jobs, plan/replan/simulate against them, and
// close them; behind the front door the service shares profiled Systems
// between jobs with the same shape, keeps one WarmCache per job for replan
// continuity, and bounds how many planner searches run at once across all
// tenants.
//
// Determinism contract: a Plan or Replan answered by a Service (in-process
// or through sailor-serve) is byte-identical on the wire codec — plan,
// estimate, Explored, CacheHits, WarmStart — to what System.Plan or
// System.Replan returns for the same request history, at any worker count.
// Only the wall-clock SearchTime field differs between runs.

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/planner"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// ErrOverloaded is the typed error of a request shed because the planner
// wait queue was full (ServiceConfig.MaxQueued). It is rpc.ErrOverloaded,
// so the condition survives the wire round-trip and the client retry
// policy classifies it as retryable-with-backoff.
var ErrOverloaded = rpc.ErrOverloaded

// WireVersion is the serving API's schema version: every request and
// response message carries it, and mismatched generations refuse each
// other loudly (see internal/wire).
const WireVersion = wire.Version

// ServiceStats is a point-in-time snapshot of a Service's counters.
type ServiceStats = wire.ServiceStats

// ServiceConfig tunes a Service. The zero value is a working default.
type ServiceConfig struct {
	// Workers is the planner search parallelism of every job's searches
	// (0 = runtime.NumCPU()). Plans are identical at any setting.
	Workers int
	// MaxConcurrent bounds how many planner searches (plans + replans) run
	// at once across all tenants; excess requests queue (0 = NumCPU).
	MaxConcurrent int
	// MaxQueued bounds how many requests may wait for a planner slot once
	// all MaxConcurrent are busy; requests beyond the bound are shed
	// immediately with ErrOverloaded instead of queueing without limit
	// (0 = 8×MaxConcurrent, negative = unbounded).
	MaxQueued int
	// SystemCacheSize caps the LRU of profiled Systems shared between jobs
	// with the same (model, GPU set, seed) shape (0 = 16).
	SystemCacheSize int
	// Seed fixes the profiling/ground-truth seed of every System the
	// service builds (0 = 1, the sailor.New default).
	Seed uint64
	// Fleet, when set, runs the service in fleet mode: all jobs plan
	// through this shared cluster-state ledger instead of caller-supplied
	// pools. Plan and Replan search the ledger's free-capacity view and
	// acquire a lease for the plan they return; availability events applied
	// via FleetEvent preempt leases in deterministic admission order; and
	// Rebalance replans every leaseless job, warm, in priority order.
	Fleet *fleet.Ledger
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = goruntime.NumCPU()
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 8 * c.MaxConcurrent
	}
	if c.SystemCacheSize <= 0 {
		c.SystemCacheSize = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// API is the request/response surface the in-process Service and the wire
// Client share, so CLIs and embedders drive either interchangeably.
type API interface {
	// OpenJob registers a named job: the model to plan for, the GPU types
	// its pools may contain, and the job's fleet priority (higher keeps
	// capacity longer under contention; ignored outside fleet mode).
	OpenJob(job string, m Model, gpus []GPUType, priority int) error
	// Plan searches cold for a plan of pool under the objective and
	// constraints. In fleet mode the shared ledger's free-capacity view
	// replaces pool, and the returned plan holds a lease on the fleet.
	Plan(ctx context.Context, job string, pool *Pool, obj Objective, cons Constraints) (PlanResult, error)
	// Replan warm-starts from the job's previously deployed plan and its
	// persistent warm cache. Fleet mode behaves as in Plan.
	Replan(ctx context.Context, job string, prev Plan, pool *Pool, obj Objective, cons Constraints) (PlanResult, error)
	// Simulate evaluates a plan with the job's analytical simulator.
	Simulate(job string, plan Plan) (Estimate, error)
	// CloseJob releases a job — and, in fleet mode, its lease; its shared
	// profiled System stays cached.
	CloseJob(job string) error
	// Stats snapshots the service counters.
	Stats() (ServiceStats, error)

	// Fleet mode. All but SetFleet return ErrNoFleet without a ledger.

	// SetFleet installs (or replaces) the fleet capacity ledger, enabling
	// fleet mode; jobCapGPUs bounds any single lease (0 = unlimited).
	// Replacing an active ledger drops every lease — an operator reset,
	// not a routine call.
	SetFleet(capacity *Pool, jobCapGPUs int) error
	// FleetEvent applies one availability event to the fleet and returns
	// the leases it broke, in admission order; the broken jobs replan on
	// the next Rebalance.
	FleetEvent(ev TraceEvent) ([]LeaseInfo, error)
	// Rebalance replans every open job that holds no lease — preempted and
	// not-yet-admitted jobs alike — in deterministic priority order
	// (priority descending, then job name ascending), warm where the job
	// deployed before, and leases the resulting plans.
	Rebalance(ctx context.Context) ([]RebalanceStep, error)
	// FleetStats snapshots the ledger: capacity, free view, lease table.
	FleetStats() (FleetStats, error)
}

// Service implements API in-process. It is safe for concurrent use by any
// number of tenants.
type Service struct {
	cfg   ServiceConfig
	start time.Time
	sem   chan struct{}

	mu       sync.Mutex
	jobs     map[string]*serviceJob
	systems  *systemLRU
	fleet    *fleet.Ledger
	rec      Recorder                // mutation recorder (nil = not durable)
	rot      atomic.Pointer[rotator] // rec's rotating side, read without s.mu (rotateIfDue)
	recovery *wire.RecoveryStats     // set by Restore; surfaced in Stats

	requests  atomic.Uint64
	plans     atomic.Uint64
	replans   atomic.Uint64
	simulates atomic.Uint64
	errors    atomic.Uint64
	inflight  atomic.Int64
	sysHits   atomic.Uint64
	sysMisses atomic.Uint64

	// queued counts requests currently waiting for a planner slot;
	// overloaded and degraded are the resilience telemetry of Stats.
	queued     atomic.Int64
	overloaded atomic.Uint64
	degraded   atomic.Uint64
}

var _ API = (*Service)(nil)

// serviceJob is one tenant's named job: a (possibly shared) profiled
// System plus the job's private warm-start cache, so replan continuity
// never leaks between tenants that share a System. In fleet mode the job
// also remembers its priority and the last deployed plan/objective, which
// seed the warm replans Rebalance runs after the job's lease breaks.
type serviceJob struct {
	// sys is the job's profiled System. It is nil for a job restored from a
	// durable snapshot until the first request touches it (jobSystem):
	// recovery re-registers jobs instantly and profiling re-warms lazily.
	sys *System
	// warm is written only while the job is built (OpenJob, Restore),
	// before it is published in Service.jobs, so searches read it without
	// the lock. The cache serves one search at a time: concurrent warm
	// requests on one job search one after another, each holding its
	// MaxConcurrent slot while it waits.
	warm *planner.WarmCache

	// model is the job's declared training config — the profile key that
	// rebuilds sys lazily after a restore.
	model Model

	// gpus is the job's declared GPU-type set: the cells of the fleet its
	// searches may draw from (fleet views are filtered to these types).
	gpus     []GPUType
	priority int
	// lastPlan/lastObj/lastCons are the job's most recent successful
	// request, guarded by Service.mu.
	lastPlan Plan
	lastObj  Objective
	lastCons Constraints
}

// NewService returns an empty multi-tenant planning service.
func NewService(cfg ServiceConfig) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:     cfg,
		start:   time.Now(),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		jobs:    map[string]*serviceJob{},
		systems: newSystemLRU(cfg.SystemCacheSize),
		fleet:   cfg.Fleet,
	}
}

// ledger returns the current fleet ledger (nil outside fleet mode).
func (s *Service) ledger() *fleet.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet
}

// systemKey identifies a profiled System shape: model, GPU set (order
// insensitive — profiles are per-type), and seed.
func (s *Service) systemKey(m Model, gpus []GPUType) string {
	names := make([]string, len(gpus))
	for i, g := range gpus {
		names[i] = string(g)
	}
	sort.Strings(names)
	return fmt.Sprintf("%+v|%s|seed%d|w%d", m, strings.Join(names, ","), s.cfg.Seed, s.cfg.Workers)
}

// OpenJob registers a named job. Jobs with the same (model, GPU set, seed)
// shape share one profiled System — the profiling campaign runs once per
// shape, not once per tenant — while each job gets its own WarmCache.
// Priority orders the job in fleet mode (higher keeps capacity longer under
// contention and replans earlier); it is recorded but unused otherwise.
func (s *Service) OpenJob(job string, m Model, gpus []GPUType, priority int) error {
	if job == "" {
		return fmt.Errorf("sailor: empty job name")
	}
	if len(gpus) == 0 {
		return fmt.Errorf("sailor: job %q lists no GPU types", job)
	}
	defer s.rotateIfDue()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[job]; ok {
		return fmt.Errorf("sailor: job %q already open", job)
	}
	sys, err := s.systemLocked(m, gpus)
	if err != nil {
		return fmt.Errorf("sailor: open job %q: %w", job, err)
	}
	s.jobs[job] = &serviceJob{sys: sys, warm: planner.NewWarmCache(), model: m,
		gpus: append([]GPUType(nil), gpus...), priority: priority, lastObj: MaxThroughput}
	if s.rec != nil {
		s.rec.RecordOpenJob(job, m, gpus, priority)
	}
	return nil
}

// systemLocked returns the shared profiled System of shape (m, gpus),
// building and caching it on miss. Callers hold s.mu.
func (s *Service) systemLocked(m Model, gpus []GPUType) (*System, error) {
	key := s.systemKey(m, gpus)
	sys, ok := s.systems.get(key)
	if ok {
		s.sysHits.Add(1)
		return sys, nil
	}
	s.sysMisses.Add(1)
	sys, err := New(m, gpus, WithSeed(s.cfg.Seed), WithWorkers(s.cfg.Workers))
	if err != nil {
		return nil, err
	}
	s.systems.put(key, sys)
	return sys, nil
}

// jobSystem returns j's profiled System, building it on first use: a job
// restored from a durable snapshot re-registers without a System, and the
// profiling campaign re-warms lazily at the job's first request.
func (s *Service) jobSystem(j *serviceJob) (*System, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.sys != nil {
		return j.sys, nil
	}
	sys, err := s.systemLocked(j.model, j.gpus)
	if err != nil {
		return nil, fmt.Errorf("sailor: rebuild profiled system: %w", err)
	}
	j.sys = sys
	return sys, nil
}

// CloseJob releases a named job and, in fleet mode, its lease. The job's
// shared System stays in the LRU for future tenants; its warm cache is
// dropped.
func (s *Service) CloseJob(job string) error {
	defer s.rotateIfDue()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[job]; !ok {
		return fmt.Errorf("sailor: job %q not open", job)
	}
	delete(s.jobs, job)
	if s.fleet != nil {
		// In durable mode the release journals first (through the ledger
		// observer), so replay sees the lease drop before the close.
		s.fleet.Release(job)
	}
	if s.rec != nil {
		s.rec.RecordCloseJob(job)
	}
	return nil
}

func (s *Service) job(name string) (*serviceJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	if !ok {
		return nil, fmt.Errorf("sailor: job %q not open (OpenJob first)", name)
	}
	return j, nil
}

// begin books a request of one class; the returned func ends it.
func (s *Service) begin(class *atomic.Uint64) func(err error) {
	s.requests.Add(1)
	class.Add(1)
	s.inflight.Add(1)
	return func(err error) {
		if err != nil {
			s.errors.Add(1)
		}
		s.inflight.Add(-1)
	}
}

// acquire takes a planner-concurrency slot, honoring ctx while queued.
// When every slot is busy the request joins a bounded wait queue
// (ServiceConfig.MaxQueued); joining past the bound sheds the request
// immediately with ErrOverloaded — back-pressure a remote client's retry
// policy can see and back off from, instead of an unbounded pile-up.
func (s *Service) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if max := s.cfg.MaxQueued; max >= 0 {
		if q := s.queued.Add(1); q > int64(max) {
			s.queued.Add(-1)
			s.overloaded.Add(1)
			return fmt.Errorf("sailor: planner queue full (%d waiting, max %d): %w", q-1, max, ErrOverloaded)
		}
		defer s.queued.Add(-1)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sailor: queued request cancelled: %w", ctx.Err())
	}
}

// degrade is the graceful-degradation path of Plan and Replan: when a
// search was cut off by the request deadline and the job has a warm
// incumbent (its last successful plan) that is still deployable, answer
// with the incumbent re-estimated and marked Degraded instead of surfacing
// the deadline error. Deployable means the incumbent fits the request's
// pool or, in fleet mode, that the job still holds its lease — commitFleet
// installs the lease and sets the incumbent together under s.mu, so a held
// lease is exactly the incumbent and the ledger is never touched. An
// incumbent the pool no longer fits, or whose lease broke, surfaces the
// deadline error. Cancellation and overload shedding do not degrade: a
// cancelled caller is gone, and a shed request must surface ErrOverloaded
// so the client backs off.
func (s *Service) degrade(ctx context.Context, name string, j *serviceJob, q searchReq, searchErr error) (PlanResult, bool) {
	if !errors.Is(searchErr, context.DeadlineExceeded) && !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return PlanResult{}, false
	}
	if errors.Is(searchErr, ErrOverloaded) {
		return PlanResult{}, false
	}
	s.mu.Lock()
	prev := j.lastPlan
	deployable := len(prev.Stages) > 0
	if q.led != nil {
		deployable = deployable && s.fleet.Held(name)
	} else {
		deployable = deployable && q.pool != nil && q.pool.CanFit(prev)
	}
	s.mu.Unlock()
	if !deployable {
		return PlanResult{}, false
	}
	sys, err := s.jobSystem(j)
	if err != nil {
		return PlanResult{}, false
	}
	est, err := sys.simulator.Estimate(prev)
	if err != nil {
		return PlanResult{}, false
	}
	s.degraded.Add(1)
	return PlanResult{Plan: prev, Estimate: est, Degraded: true}, true
}

// searchReq is one planner search on a job's behalf. Every request path —
// Plan, Replan, a fleet grant attempt — is one of these plus what the
// caller does with the result.
type searchReq struct {
	// pool is the caller's pool. It is ignored when led is set.
	pool *Pool
	// led makes this a fleet search: the pool is the ledger's free capacity
	// (plus the job's own lease) restricted to the job's declared GPU types,
	// then capped — read once the slot is held, so time spent queueing
	// cannot stale it — and a capacity guard keeps the search from spending
	// more than that view. Filtering before capping means the per-job cap
	// is spent on cells the job can use.
	led *fleet.Ledger
	// prev is the incumbent to replan from; empty searches unseeded.
	prev Plan
	obj  Objective
	cons Constraints
	// warm searches against the job's own warm cache.
	warm bool
}

// search is the service's one planner call: take a slot, build the job's
// planner, search, give the slot back.
func (s *Service) search(ctx context.Context, name string, j *serviceJob, q searchReq) (PlanResult, error) {
	if err := s.acquire(ctx); err != nil {
		return PlanResult{}, err
	}
	defer func() { <-s.sem }()
	sys, err := s.jobSystem(j)
	if err != nil {
		return PlanResult{}, err
	}
	opts := sys.plannerOpts(q.obj, q.cons)
	if q.led != nil {
		q.pool = q.led.ViewForTypes(name, j.gpus)
		if q.pool.TotalGPUs() == 0 {
			return PlanResult{}, fmt.Errorf("sailor: fleet has no free capacity for job %q", name)
		}
		opts.Guard = planner.NewCapacityGuard(q.pool)
	}
	if q.warm {
		opts.Warm = j.warm
	}
	// An empty prev seeds nothing, so a cold plan is the same call.
	return planner.New(sys.Model, sys.simulator, opts).ReplanContext(ctx, q.prev, q.pool)
}

// serve is the foreground request path behind Plan and Replan. In fleet
// mode the search runs over the shared ledger's view (the caller's pool is
// ignored — the ledger is authoritative) and the returned plan holds a
// lease. Otherwise it is one search over the caller's pool, remembered as
// the job's last plan. Nothing runs after the reply: the Service does no
// background work.
func (s *Service) serve(ctx context.Context, class *atomic.Uint64, job string, q searchReq) (res PlanResult, err error) {
	defer s.rotateIfDue()
	done := s.begin(class)
	defer func() { done(err) }()
	if err := q.pool.CheckCounts(); err != nil {
		return PlanResult{}, err
	}
	j, err := s.job(job)
	if err != nil {
		return PlanResult{}, err
	}
	if q.led = s.ledger(); q.led != nil {
		res, err = s.planFleet(ctx, job, j, q)
	} else if res, err = s.search(ctx, job, j, q); err == nil {
		s.recordPlan(job, j, res.Plan, q.obj, q.cons)
	}
	if err != nil {
		if deg, ok := s.degrade(ctx, job, j, q, err); ok {
			return deg, nil
		}
	}
	return res, err
}

// Plan implements API: a cold planner search, identical to System.Plan on
// the same inputs.
func (s *Service) Plan(ctx context.Context, job string, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	return s.serve(ctx, &s.plans, job, searchReq{pool: pool, obj: obj, cons: cons})
}

// Replan implements API: a warm replan against the job's private cache,
// identical to System.Replan given the same request history.
func (s *Service) Replan(ctx context.Context, job string, prev Plan, pool *Pool, obj Objective, cons Constraints) (PlanResult, error) {
	return s.serve(ctx, &s.replans, job, searchReq{pool: pool, prev: prev, obj: obj, cons: cons, warm: true})
}

// recordPlan remembers a job's last successful request — the seed of the
// warm replans Rebalance issues on its behalf. The journal record is only
// emitted while the job is still this open incarnation: a tenant closing
// the job mid-request must not leave a plan record for a closed job.
func (s *Service) recordPlan(name string, j *serviceJob, plan Plan, obj Objective, cons Constraints) {
	s.mu.Lock()
	j.lastPlan, j.lastObj, j.lastCons = plan, obj, cons
	if s.rec != nil && s.jobs[name] == j {
		s.rec.RecordJobPlan(name, plan, obj, cons)
	}
	s.mu.Unlock()
}

// Simulate implements API: the analytical simulator's estimate of a plan.
// Simulation is cheap and does not occupy a planner-concurrency slot.
func (s *Service) Simulate(job string, plan Plan) (est Estimate, err error) {
	done := s.begin(&s.simulates)
	defer func() { done(err) }()
	j, err := s.job(job)
	if err != nil {
		return Estimate{}, err
	}
	sys, err := s.jobSystem(j)
	if err != nil {
		return Estimate{}, err
	}
	return sys.simulator.Estimate(plan)
}

// Stats implements API with a consistent snapshot of the counters.
func (s *Service) Stats() (ServiceStats, error) {
	s.mu.Lock()
	jobs := len(s.jobs)
	cached := s.systems.len()
	recovery := s.recovery
	rec := s.rec
	s.mu.Unlock()
	// The recorder's sticky append error is read outside s.mu: the
	// persist.Store takes its own lock and must never nest inside ours.
	journalErr := ""
	if hr, ok := rec.(interface{ Err() error }); ok {
		if err := hr.Err(); err != nil {
			journalErr = err.Error()
		}
	}
	uptime := time.Since(s.start).Seconds()
	reqs := s.requests.Load()
	qps := 0.0
	if uptime > 0 {
		qps = float64(reqs) / uptime
	}
	return ServiceStats{
		UptimeSeconds:     uptime,
		Requests:          reqs,
		QPS:               qps,
		Plans:             s.plans.Load(),
		Replans:           s.replans.Load(),
		Simulates:         s.simulates.Load(),
		Errors:            s.errors.Load(),
		InFlight:          s.inflight.Load(),
		JobsOpen:          jobs,
		SystemsCached:     cached,
		SystemCacheHits:   s.sysHits.Load(),
		SystemCacheMisses: s.sysMisses.Load(),
		Recovery:          recovery,
		Overloaded:        s.overloaded.Load(),
		Degraded:          s.degraded.Load(),
		JournalError:      journalErr,
	}, nil
}

// Quiesce returns at once: the Service runs no background work, so every
// reply is already a deterministic function of the request history and
// there is nothing to drain.
//
// Deprecated: Quiesce is a no-op kept for the benchmark module, its last
// caller; it will be deleted once that caller drops it.
func (s *Service) Quiesce() {}
