// Package fleet is the cluster-wide capacity ledger that arbitrates one
// elastic GPU fleet across many concurrent jobs. The paper's planner assumes
// each job sees the whole dynamic pool; at fleet scale that assumption
// breaks — two jobs would both "win" the same GPUs. The Ledger closes the
// gap: it wraps a cluster.Pool of total capacity with per-job leases, hands
// planners a free-capacity view to search over, and replays availability
// events against the *fleet*, computing which leases the event broke and
// therefore which jobs must replan.
//
// Determinism contract: every ordered walk of the ledger — lease eviction
// under a capacity loss, the Snapshot lease table, and the rebalance order
// layered on top by sailor.Service — uses the same admission order: priority
// descending, then job name ascending. The order is a pure function of the
// lease set, never of arrival time or map iteration, so a replayed event
// sequence produces a byte-identical reconfiguration ledger at any planner
// worker count.
//
// Safety invariant: the sum of leased capacity never exceeds fleet capacity
// in any (zone, GPU type) cell. Grants validate against the free view under
// the ledger lock, and Apply evicts newly infeasible leases inside the same
// critical section that shrinks capacity, so the invariant holds at every
// public boundary. CheckInvariant re-derives it for tests and replay
// harnesses.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// ErrConflict reports that a lease grant lost a race against the fleet's
// free capacity: the plan fit the view the caller searched over, but the
// ledger moved before the grant. Callers retry against a fresh view.
var ErrConflict = errors.New("fleet: lease conflicts with current free capacity")

// OpKind classifies a ledger mutation for observers.
type OpKind int

const (
	// OpInstall is a lease grant or replacement (Install).
	OpInstall OpKind = iota
	// OpRelease is a lease drop (Release). Evictions driven by
	// OpApply and OpSetCap are not separate ops: they are deterministic
	// consequences of replaying those ops against the same ledger state.
	OpRelease
	// OpApply is one availability event mutating fleet capacity.
	OpApply
	// OpSetCap is a per-job GPU cap change.
	OpSetCap
)

// String names the op kind (journal records carry these names).
func (k OpKind) String() string {
	switch k {
	case OpInstall:
		return "lease-install"
	case OpRelease:
		return "lease-release"
	case OpApply:
		return "fleet-event"
	case OpSetCap:
		return "set-cap"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op describes one committed ledger mutation: the kind, the fields that
// replaying it needs, and the ledger version the mutation produced. Replaying
// the same ops in Version order against a ledger restored from the preceding
// snapshot reproduces the exact lease table and version trajectory — broken
// leases under OpApply/OpSetCap re-derive deterministically, so they are not
// part of the op.
type Op struct {
	Kind OpKind
	// Job/Priority/Plan describe OpInstall (Job alone describes OpRelease).
	Job      string
	Priority int
	Plan     core.Plan
	// Event is the availability change of OpApply.
	Event trace.Event
	// JobCap is the new per-job GPU cap of OpSetCap.
	JobCap int
	// Version is the ledger's mutation counter after the op committed.
	Version uint64
}

// SetObserver installs fn to be called, under the ledger lock, after every
// version-bumping mutation commits — the hook a write-ahead journal hangs off.
// The callback sees ops in exact version order and must not call back into
// the ledger (it would deadlock). A nil fn removes the observer.
func (l *Ledger) SetObserver(fn func(Op)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observer = fn
}

// notifyLocked emits an op to the observer; callers hold l.mu and have
// already bumped the version.
func (l *Ledger) notifyLocked(op Op) {
	if l.observer != nil {
		op.Version = l.version
		l.observer(op)
	}
}

// Lease is one job's hold on fleet capacity: the plan whose GPU demand the
// ledger has reserved for it.
type Lease struct {
	// Job names the lease holder.
	Job string
	// Priority orders jobs under contention: higher keeps capacity longer
	// and replans earlier. Ties break on job name ascending.
	Priority int
	// Plan is the parallelization plan whose GPU demand is reserved.
	Plan core.Plan
	// Acquired is the ledger version at which this lease was last granted.
	Acquired uint64
}

// GPUs returns the lease's total reserved GPU count.
func (le Lease) GPUs() int { return le.Plan.GPUCount() }

// Ledger is a concurrent, versioned capacity ledger over one fleet. All
// methods are safe for concurrent use; the zero value is not usable — build
// one with NewLedger.
type Ledger struct {
	mu       sync.Mutex
	version  uint64
	capacity *cluster.Pool
	leases   map[string]*Lease
	// jobCap limits any single lease to this many GPUs (0 = unlimited) —
	// the fair-share cap that keeps one max-throughput job from leasing
	// the whole fleet and starving every other tenant.
	jobCap int
	// observer, when set, sees every version-bumping mutation in exact
	// version order (see SetObserver).
	observer func(Op)
}

// NewLedger returns a ledger whose total capacity is a deep copy of pool
// (which may be empty when capacity arrives through Apply events).
func NewLedger(pool *cluster.Pool) *Ledger {
	if pool == nil {
		pool = cluster.NewPool()
	}
	return &Ledger{capacity: pool.Clone(), leases: map[string]*Lease{}}
}

// Version returns the mutation counter: it advances on every Install,
// Release, Apply, and SetJobCap, so observers can cheaply detect fleet drift.
func (l *Ledger) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Capacity returns a copy of the fleet's total capacity.
func (l *Ledger) Capacity() *cluster.Pool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.capacity.Clone()
}

// FreeView returns the free-capacity snapshot planners search over: total
// capacity minus every lease's demand.
func (l *Ledger) FreeView() *cluster.Pool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.freeLocked("")
}

// ViewForTypes returns the capacity a replan of job may draw from,
// restricted to the GPU types the job's profiled System can actually plan
// with: the free view plus the job's own lease (a job may always reshuffle
// capacity it holds), filtered to gpus *before* the per-job cap is applied,
// so the cap is spent on usable cells only. An empty type list means no
// filter.
func (l *Ledger) ViewForTypes(job string, gpus []core.GPUType) *cluster.Pool {
	l.mu.Lock()
	defer l.mu.Unlock()
	view := l.freeLocked(job)
	if len(gpus) > 0 {
		view = view.FilterTypes(gpus)
	}
	if l.jobCap > 0 {
		view = view.CapTotal(l.jobCap)
	}
	return view
}

// SetJobCap bounds every lease to at most n GPUs (0 removes the cap).
// Existing oversized leases are evicted in admission order and returned,
// exactly as if capacity had shifted under them.
func (l *Ledger) SetJobCap(n int) []Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.version++
	l.jobCap = n
	l.notifyLocked(Op{Kind: OpSetCap, JobCap: n})
	if n <= 0 {
		return nil
	}
	var broken []Lease
	for _, job := range l.orderLocked() {
		if le := l.leases[job]; le.GPUs() > n {
			broken = append(broken, *le)
			delete(l.leases, job)
		}
	}
	return broken
}

// JobCap returns the per-job GPU cap (0 = unlimited).
func (l *Ledger) JobCap() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.jobCap
}

// freeLocked computes capacity minus all leases except skip's.
func (l *Ledger) freeLocked(skip string) *cluster.Pool {
	free := l.capacity.Clone()
	for job, le := range l.leases {
		if job == skip {
			continue
		}
		// The safety invariant guarantees every lease subtracts cleanly.
		_ = free.Subtract(le.Plan)
	}
	return free
}

// Held reports whether job currently holds a lease.
func (l *Ledger) Held(job string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.leases[job]
	return ok
}

// Install grants or replaces job's lease in one step — the acquire-or-resize
// a planner-driven admission loop wants. On failure the previous lease (if
// any) is left untouched. On success it returns the grant's Acquired
// version, the ledger version this grant produced.
func (l *Ledger) Install(job string, priority int, plan core.Plan) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.grantLocked(job, priority, plan); err != nil {
		return 0, err
	}
	return l.leases[job].Acquired, nil
}

// grantLocked validates plan against the free view excluding job's own
// lease and installs the lease, bumping the version.
func (l *Ledger) grantLocked(job string, priority int, plan core.Plan) error {
	if job == "" {
		return fmt.Errorf("fleet: empty job name")
	}
	if plan.GPUCount() == 0 {
		return fmt.Errorf("fleet: refusing empty-plan lease for job %q", job)
	}
	if l.jobCap > 0 && plan.GPUCount() > l.jobCap {
		return fmt.Errorf("fleet: plan for job %q wants %d GPUs, per-job cap is %d",
			job, plan.GPUCount(), l.jobCap)
	}
	if !l.freeLocked(job).CanFit(plan) {
		return fmt.Errorf("%w (job %q, %d GPUs)", ErrConflict, job, plan.GPUCount())
	}
	l.version++
	l.leases[job] = &Lease{Job: job, Priority: priority, Plan: plan, Acquired: l.version}
	l.notifyLocked(Op{Kind: OpInstall, Job: job, Priority: priority, Plan: plan})
	return nil
}

// Release drops job's lease, returning whether one was held.
func (l *Ledger) Release(job string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.leases[job]; !ok {
		return false
	}
	l.version++
	delete(l.leases, job)
	l.notifyLocked(Op{Kind: OpRelease, Job: job})
	return true
}

// Apply replays one availability event against the fleet capacity
// (reclamations clamp at zero, matching trace replay semantics) and evicts
// every lease the new capacity can no longer honor. Eviction is
// deterministic: leases are re-validated in admission order — priority
// descending, then job name ascending — and the first ones in that order
// keep their capacity, so contention always preempts the lowest-priority,
// lexicographically-last jobs. The broken leases are returned in that same
// order; their jobs must replan (see sailor.Service.Rebalance).
func (l *Ledger) Apply(ev trace.Event) []Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.version++
	l.capacity.Add(ev.Zone, ev.GPU, ev.Delta)
	l.notifyLocked(Op{Kind: OpApply, Event: ev})
	return l.evictLocked()
}

// evictLocked walks leases in admission order, keeping the maximal prefix
// the capacity still fits and evicting the rest.
func (l *Ledger) evictLocked() []Lease {
	if len(l.leases) == 0 {
		return nil
	}
	work := l.capacity.Clone()
	var broken []Lease
	for _, job := range l.orderLocked() {
		le := l.leases[job]
		if work.Subtract(le.Plan) != nil {
			broken = append(broken, *le)
			delete(l.leases, job)
		}
	}
	return broken
}

// orderLocked returns lease holders in admission order: priority
// descending, then job name ascending.
func (l *Ledger) orderLocked() []string {
	jobs := make([]string, 0, len(l.leases))
	for job := range l.leases {
		jobs = append(jobs, job)
	}
	sort.Slice(jobs, func(i, j int) bool {
		pi, pj := l.leases[jobs[i]].Priority, l.leases[jobs[j]].Priority
		if pi != pj {
			return pi > pj
		}
		return jobs[i] < jobs[j]
	})
	return jobs
}

// Snapshot is a consistent point-in-time view of the ledger.
type Snapshot struct {
	// Version is the mutation counter at snapshot time.
	Version uint64
	// Capacity and Free are deep copies of the total and unleased pools.
	Capacity *cluster.Pool
	Free     *cluster.Pool
	// JobCap is the per-job GPU cap (0 = unlimited).
	JobCap int
	// Leases lists every lease in admission order.
	Leases []Lease
}

// Snapshot returns the ledger's current state under one lock acquisition.
func (l *Ledger) Snapshot() (s Snapshot) {
	l.WithSnapshot(func(snap Snapshot) { s = snap })
	return s
}

// WithSnapshot calls fn with the ledger's current state under the ledger
// lock, so no mutation (nor observer op) lands until fn returns — the hook a
// journal rotation captures through. fn must not call back into the ledger.
func (l *Ledger) WithSnapshot(fn func(Snapshot)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{
		Version:  l.version,
		Capacity: l.capacity.Clone(),
		Free:     l.freeLocked(""),
		JobCap:   l.jobCap,
	}
	for _, job := range l.orderLocked() {
		s.Leases = append(s.Leases, *l.leases[job])
	}
	fn(s)
}

// FromSnapshot rebuilds a ledger at the exact state a Snapshot captured:
// capacity, per-job cap, the lease table with the original Acquired versions,
// and — critically for journal replay — the mutation counter itself, so ops
// recorded after the snapshot re-apply onto the same version trajectory. The
// snapshot's pools are deep-copied; the safety invariant is re-validated and
// a snapshot that violates it (a corrupted or hand-edited document) is
// rejected rather than restored.
func FromSnapshot(s Snapshot) (*Ledger, error) {
	if s.Capacity == nil {
		return nil, fmt.Errorf("fleet: snapshot has no capacity pool")
	}
	l := &Ledger{
		version:  s.Version,
		capacity: s.Capacity.Clone(),
		leases:   make(map[string]*Lease, len(s.Leases)),
		jobCap:   s.JobCap,
	}
	for _, le := range s.Leases {
		if le.Job == "" {
			return nil, fmt.Errorf("fleet: snapshot lease with empty job name")
		}
		if _, ok := l.leases[le.Job]; ok {
			return nil, fmt.Errorf("fleet: snapshot holds two leases for job %q", le.Job)
		}
		if le.Acquired > s.Version {
			return nil, fmt.Errorf("fleet: snapshot lease %q acquired at version %d, after snapshot version %d",
				le.Job, le.Acquired, s.Version)
		}
		if s.JobCap > 0 && le.GPUs() > s.JobCap {
			return nil, fmt.Errorf("fleet: snapshot lease %q holds %d GPUs over the per-job cap %d",
				le.Job, le.GPUs(), s.JobCap)
		}
		cp := le
		l.leases[le.Job] = &cp
	}
	if err := l.CheckInvariant(); err != nil {
		return nil, fmt.Errorf("fleet: snapshot restore: %w", err)
	}
	return l, nil
}

// CheckInvariant re-derives the safety invariant — the sum of leased
// capacity fits the fleet capacity in every (zone, GPU type) cell — and
// returns an error naming the first lease that breaks it. Replay harnesses
// assert this after every event step.
func (l *Ledger) CheckInvariant() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	work := l.capacity.Clone()
	for _, job := range l.orderLocked() {
		if err := work.Subtract(l.leases[job].Plan); err != nil {
			return fmt.Errorf("fleet: invariant violated at lease %q: %w", job, err)
		}
	}
	return nil
}
