package sailor

// Fleet mode of the Service: leased searches against the shared capacity
// ledger, ledger installation, availability events, and the Rebalance pass.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/wire"
)

// ErrNoFleet is returned by the fleet-mode calls (FleetEvent, Rebalance,
// FleetStats) of a service that has no capacity ledger configured.
var ErrNoFleet = errors.New("sailor: fleet mode not enabled (set ServiceConfig.Fleet or call SetFleet)")

// FleetStats is a point-in-time snapshot of the fleet capacity ledger.
type FleetStats = wire.FleetStats

// LeaseInfo is one row of the fleet's per-job lease table.
type LeaseInfo = wire.LeaseInfo

// RebalanceStep is one job's outcome in a Rebalance pass.
type RebalanceStep = wire.RebalanceStep

// Ledger is the shared cluster-state capacity ledger of fleet mode: total
// fleet capacity, per-job leases, and deterministic preemption under
// availability events. Build one with NewLedger and hand it to
// ServiceConfig.Fleet (or call Service.SetFleet).
type Ledger = fleet.Ledger

// Lease is one job's hold on fleet capacity.
type Lease = fleet.Lease

// ErrLeaseConflict is the typed error of a lease grant that lost the
// admission race against the fleet's free capacity.
var ErrLeaseConflict = fleet.ErrConflict

// NewLedger returns a fleet ledger over a total-capacity pool (which may be
// empty when capacity arrives through availability events).
func NewLedger(capacity *Pool) *Ledger { return fleet.NewLedger(capacity) }

// planFleet runs one leased search for a fleet job: search the ledger's
// view for the job, then install the resulting plan as the job's lease. A
// grant can lose the race against a concurrent tenant between the view
// snapshot and the install; the loop retries against a fresh view a few
// times before giving up with ErrLeaseConflict.
func (s *Service) planFleet(ctx context.Context, name string, j *serviceJob, q searchReq) (PlanResult, error) {
	const attempts = 3
	var lastErr error
	for a := 0; a < attempts; a++ {
		res, err := s.search(ctx, name, j, q)
		if err != nil {
			return PlanResult{}, err
		}
		switch err := s.commitFleet(name, j, q, res); {
		case err == nil:
			return res, nil
		case errors.Is(err, fleet.ErrConflict):
			lastErr = err // the ledger moved under us; search a fresh view
		default:
			return PlanResult{}, err
		}
	}
	return PlanResult{}, fmt.Errorf("sailor: job %q lost the fleet admission race %d times: %w", name, attempts, lastErr)
}

// commitFleet installs a searched plan as job's lease and makes it the job's
// last successful request under s.mu (lock order s.mu → ledger → recorder,
// as in CloseJob). It refuses a job closed while it planned and a ledger
// replaced since, so every journaled grant is the open incarnation's plan
// on the live ledger. fleet.ErrConflict means the ledger moved between the
// search and the grant (planFleet retries against a fresh view).
func (s *Service) commitFleet(name string, j *serviceJob, q searchReq, res PlanResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[name] != j {
		return fmt.Errorf("sailor: job %q closed while planning", name)
	}
	if q.led != s.fleet {
		return fmt.Errorf("sailor: fleet ledger replaced while planning job %q", name)
	}
	if _, err := q.led.Install(name, j.priority, res.Plan); err != nil {
		return err
	}
	// Replay takes the lease-install as the job's last plan; a job-plan is
	// needed only to set or change the objective and constraints.
	if s.rec != nil && (len(j.lastPlan.Stages) == 0 || j.lastObj != q.obj || j.lastCons != q.cons) {
		s.rec.RecordJobPlan(name, res.Plan, q.obj, q.cons)
	}
	j.lastPlan, j.lastObj, j.lastCons = res.Plan, q.obj, q.cons
	return nil
}

// SetFleet implements API: install (or replace) the fleet capacity ledger.
// Replacing an active ledger drops every lease; open jobs keep their warm
// caches and last plans, so the next Rebalance re-admits them warm.
func (s *Service) SetFleet(capacity *Pool, jobCapGPUs int) error {
	if err := capacity.CheckCounts(); err != nil {
		return err
	}
	led := fleet.NewLedger(capacity)
	led.SetJobCap(jobCapGPUs)
	return s.SetFleetLedger(led)
}

// installFleetLocked makes led the service's ledger and, in durable mode,
// journals its full post-install state before attaching the op observer —
// so the initial cap is not double-journaled and every later mutation is.
// The replaced ledger stops journaling. Callers hold s.mu.
func (s *Service) installFleetLocked(led *fleet.Ledger) {
	if s.fleet != nil && s.fleet != led {
		s.fleet.SetObserver(nil)
	}
	s.fleet = led
	if s.rec != nil {
		s.rec.RecordSetFleet(led.Snapshot())
		led.SetObserver(s.rec.RecordLedgerOp)
	}
}

// SetFleetLedger installs (or replaces) a caller-built capacity ledger —
// SetFleet for embedders that need to keep the handle, e.g. to move the
// per-job cap mid-replay with Ledger.SetJobCap (demand autoscaling) or to
// drive the ledger directly in a test harness. The same replacement
// semantics as SetFleet apply: every lease is dropped, open jobs keep
// their warm caches and last plans.
func (s *Service) SetFleetLedger(led *Ledger) error {
	if led == nil {
		return fmt.Errorf("sailor: nil fleet ledger")
	}
	defer s.rotateIfDue()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.installFleetLocked(led)
	return nil
}

// FleetEvent implements API: apply one availability event to the fleet and
// report the leases it broke, in admission order.
func (s *Service) FleetEvent(ev TraceEvent) ([]LeaseInfo, error) {
	defer s.rotateIfDue()
	led := s.ledger()
	if led == nil {
		return nil, ErrNoFleet
	}
	broken := led.Apply(ev)
	out := make([]LeaseInfo, len(broken))
	for i, le := range broken {
		out[i] = wire.FromLease(le)
	}
	return out, nil
}

// rebalCand is one leaseless job queued for a Rebalance pass, snapshotted
// under s.mu so the pass works off a consistent candidate set.
type rebalCand struct {
	name string
	j    *serviceJob
	// q is the job's last successful request, replayed warm: an admission
	// populates the job's cache, so the preemption-driven replan that
	// follows a capacity loss reuses the DP regions already solved.
	q   searchReq
	pri int
}

// Rebalance implements API: replan every open job that holds no lease, in
// deterministic priority order (priority descending, then job name
// ascending). A job that deployed before replans warm from its last plan;
// a never-admitted job plans cold. Jobs that find no feasible plan — or no
// free capacity at all — are reported with action "wait" and retried on
// the next call. Cancellation returns the steps completed so far.
//
// The pass is one ordered loop: each candidate checks free capacity, then
// searches and commits at its turn, so it sees every earlier commit of the
// pass and the steps, plans and ledger trajectory are a function of the
// ledger state and the candidate order alone.
func (s *Service) Rebalance(ctx context.Context) ([]RebalanceStep, error) {
	defer s.rotateIfDue()
	led := s.ledger()
	if led == nil {
		return nil, ErrNoFleet
	}
	s.mu.Lock()
	cands := make([]rebalCand, 0, len(s.jobs))
	for name, j := range s.jobs {
		if led.Held(name) {
			continue
		}
		q := searchReq{led: led, prev: j.lastPlan, obj: j.lastObj, cons: j.lastCons, warm: true}
		cands = append(cands, rebalCand{name, j, q, j.priority})
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, k int) bool {
		if cands[i].pri != cands[k].pri {
			return cands[i].pri > cands[k].pri
		}
		return cands[i].name < cands[k].name
	})
	var steps []RebalanceStep
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		step := RebalanceStep{Job: c.name, Priority: c.pri, Action: "admit"}
		if len(c.q.prev.Stages) > 0 {
			step.Action = "replan"
		}
		if led.FreeView().TotalGPUs() == 0 {
			step.Action, step.Error = "wait", "no free fleet capacity"
			steps = append(steps, step)
			continue
		}
		res, err := s.planFleet(ctx, c.name, c.j, c.q)
		if ctxErr := ctx.Err(); ctxErr != nil && err != nil {
			return steps, ctxErr
		}
		if err != nil {
			step.Action, step.Error = "wait", err.Error()
		} else {
			r := wire.FromResult(res)
			step.Result = &r
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// FleetStats implements API with a consistent ledger snapshot.
func (s *Service) FleetStats() (FleetStats, error) {
	led := s.ledger()
	if led == nil {
		return FleetStats{}, ErrNoFleet
	}
	return wire.FromFleetSnapshot(led.Snapshot()), nil
}
