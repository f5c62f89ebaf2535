package sailor

// Durability hooks: the bridge between a live Service and the
// internal/persist subsystem. The service itself stays storage-free — it
// exposes its state as a persist.State (PersistState), accepts one back
// (Restore), and streams every mutation to a Recorder (SetRecorder). The
// sailor-serve daemon composes these with a persist.Store:
//
//	boot:     persist.Open → Restore(recovered) → store.Rotate(PersistState())
//	          → SetRecorder(store) → serve
//	serving:  after each journaling call, once store.RotateDue():
//	          store.Rotate(live state), captured under the service locks
//	shutdown: drain → store.Rotate(PersistState()) → store.Close()
//
// Restored jobs carry no profiled System: profiling re-warms lazily on each
// job's first request (jobSystem), so recovery cost is proportional to the
// state, not to the profiling campaign. Warm planner caches are not
// persisted either — a warm replan that runs to completion returns the same
// plan as a cold one, so post-recovery plans are byte-identical and only
// the CacheHits/Explored telemetry differs.

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/planner"
	"repro/internal/wire"
)

// Recorder receives every state-mutating operation of a Service, in an
// order that replays: ledger ops arrive from inside the ledger's critical
// section (exact version order), service ops under the service lock. A
// Recorder must not call back into the Service or its Ledger — it runs
// under their locks. *persist.Store implements Recorder.
type Recorder interface {
	RecordOpenJob(job string, m Model, gpus []GPUType, priority int)
	RecordCloseJob(job string)
	RecordJobPlan(job string, plan Plan, obj Objective, cons Constraints)
	RecordSetFleet(snap fleet.Snapshot)
	RecordLedgerOp(op fleet.Op)
}

// rotator is the optional side of a Recorder whose journal the service
// rotates itself (rotateIfDue).
type rotator interface {
	RotateDue() bool
	Rotate(*persist.State) error
}

var _ interface {
	Recorder
	rotator
} = (*persist.Store)(nil)

// SetRecorder attaches (or, with nil, detaches) the mutation recorder,
// including the fleet ledger's op observer. Attach before serving traffic:
// mutations made while no recorder is attached are not journaled, so the
// caller must snapshot (Rotate) the current state first. A *persist.Store
// is then rotated by the service itself whenever it is due.
func (s *Service) SetRecorder(rec Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
	rot, _ := rec.(rotator)
	s.rot.Store(&rot)
	if s.fleet == nil {
		return
	}
	if rec == nil {
		s.fleet.SetObserver(nil)
		return
	}
	s.fleet.SetObserver(rec.RecordLedgerOp)
}

// PersistState captures the service's durable state: open jobs (model, GPU
// set, priority, last deployed plan), the fleet ledger, and the
// profiled-system LRU keys. Call it on a quiesced service (before serving,
// or after draining): a mutation landing between the capture and the
// Rotate that snapshots it would be journaled into the superseded
// generation and lost.
func (s *Service) PersistState() *persist.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st *persist.State
	s.captureLocked(func(c *persist.State) { st = c })
	return st
}

// rotateIfDue runs after every journaling entry point has released its
// locks: once the store is due, it re-checks and rotates under s.mu and
// then the ledger lock (the order every Record* call nests in), so no
// mutation can journal into the superseded generation. A failed Rotate
// keeps the old journal (due, so the next call retries) or leaves the store
// without one, which its next append reports as journal_error.
func (s *Service) rotateIfDue() {
	if p := s.rot.Load(); p == nil || *p == nil || !(*p).RotateDue() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rot, ok := s.rec.(rotator); ok && rot.RotateDue() { // not rotated meanwhile
		s.captureLocked(func(st *persist.State) { _ = rot.Rotate(st) }) // the store reports a failure, as above
	}
}

// captureLocked hands fn the durable state with the ledger lock (fleet
// mode) still held. Callers hold s.mu.
func (s *Service) captureLocked(fn func(*persist.State)) {
	st := &persist.State{}
	for name, j := range s.jobs {
		js := persist.JobState{
			Name:     name,
			Model:    wire.FromModel(j.model),
			GPUs:     gpuNames(j.gpus),
			Priority: j.priority,
		}
		if len(j.lastPlan.Stages) > 0 {
			plan := persist.PlanFrom(j.lastPlan)
			cons := wire.FromConstraints(j.lastCons)
			js.LastPlan, js.LastObjective, js.LastConstraints = &plan, j.lastObj.String(), &cons
		}
		st.Jobs = append(st.Jobs, js)
	}
	st.Normalize()
	if s.fleet == nil {
		fn(st)
		return
	}
	s.fleet.WithSnapshot(func(snap fleet.Snapshot) {
		st.Fleet = persist.FleetStateFrom(snap)
		fn(st)
	})
}

// Restore loads a recovered state into an empty service: jobs re-register
// (systems profile lazily on first use), the fleet ledger resumes at its
// exact recovered version, and Stats' Recovery block reports the recovery.
// The service must not have served yet — restored state replaces whatever
// the config seeded.
func (s *Service) Restore(r *persist.Recovered) error {
	if r == nil || r.State == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) > 0 {
		return fmt.Errorf("sailor: Restore on a service with %d open jobs", len(s.jobs))
	}
	for _, js := range r.State.Jobs {
		j := &serviceJob{
			model:    js.Model.Config(),
			warm:     planner.NewWarmCache(),
			gpus:     gpuTypes(js.GPUs),
			priority: js.Priority,
			lastObj:  MaxThroughput,
		}
		if js.LastPlan != nil {
			obj, err := ParseObjective(js.LastObjective)
			if err != nil {
				return fmt.Errorf("sailor: restore job %q: %w", js.Name, err)
			}
			j.lastPlan, j.lastObj, j.lastCons = js.LastPlan.Core(), obj, js.LastConstraints.Core()
		}
		s.jobs[js.Name] = j
	}
	if r.State.Fleet != nil {
		led, err := r.State.Fleet.Ledger()
		if err != nil {
			return err
		}
		s.fleet = led
	} else {
		s.fleet = nil
	}
	s.recovery = &wire.RecoveryStats{
		SnapshotGen:     r.SnapshotGen,
		LedgerVersion:   r.LedgerVersion,
		JobsRestored:    len(r.State.Jobs),
		RecordsReplayed: r.RecordsReplayed,
		DurationSeconds: r.Duration.Seconds(),
	}
	return nil
}

// gpuNames flattens a GPU-type set for persistence.
func gpuNames(gpus []GPUType) []string {
	out := make([]string, len(gpus))
	for i, g := range gpus {
		out[i] = string(g)
	}
	return out
}

// gpuTypes is the inverse of gpuNames.
func gpuTypes(names []string) []GPUType {
	out := make([]GPUType, len(names))
	for i, n := range names {
		out[i] = GPUType(n)
	}
	return out
}
