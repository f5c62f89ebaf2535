package persist

// Snapshot codec: the full service state as one deterministic, versioned
// document {"v":1,"kind":"snapshot","body":{...}}. Encoding equal
// states yields identical bytes (jobs sorted by name, leases in admission
// order, struct fields in declaration order, no maps), so goldens and the
// round-trip fuzz target can compare snapshots byte for byte. Decoding
// rejects unknown schema versions, kinds, and body fields by name — exactly
// the posture of internal/trace files.

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/fleet"
	"repro/internal/wire"
)

// State is the durable shape of a sailor.Service: everything a restarted
// daemon needs to continue deterministically. Warm planner caches and
// profiled systems are deliberately absent — plans are pure functions of
// (model, pool, constraints), so they re-derive identically, and profiling
// re-warms lazily on each restored job's first request.
type State struct {
	// Jobs lists the open jobs, sorted by name.
	Jobs []JobState `json:"jobs"`
	// Fleet is the fleet ledger (nil outside fleet mode).
	Fleet *FleetState `json:"fleet,omitempty"`
	// LRUKeys is a legacy key: older builds stored the shared
	// profiled-system cache keys here, which recovery never read. It is no
	// longer written; it stays so that their snapshots still decode under
	// the strict decoder.
	LRUKeys []string `json:"lru_keys,omitempty"`
}

// JobState is one open job's durable registration plus its last successful
// request, the seed of post-recovery warm replans.
type JobState struct {
	Name string `json:"name"`
	// Model and GPUs re-register the job (and lazily re-profile its system).
	Model wire.Model `json:"model"`
	GPUs  []string   `json:"gpus"`
	// Priority orders the job in fleet mode.
	Priority int `json:"priority"`
	// LastPlan / LastObjective / LastConstraints replay the job's most recent
	// successful plan or replan (LastPlan.GPUs nil when none succeeded yet).
	LastPlan        *Plan             `json:"last_plan,omitempty"`
	LastObjective   string            `json:"last_objective,omitempty"`
	LastConstraints *wire.Constraints `json:"last_constraints,omitempty"`
}

// FleetState is the fleet ledger's durable shape — fleet.Snapshot over wire
// types, minus the derived Free pool.
type FleetState struct {
	// Version is the ledger's mutation counter; journal replay asserts
	// against its trajectory.
	Version uint64 `json:"version"`
	// JobCap is the per-job GPU cap (0 = unlimited).
	JobCap int `json:"job_cap"`
	// Capacity is the fleet's total pool.
	Capacity wire.Pool `json:"capacity"`
	// Leases is the lease table in admission order.
	Leases []LeaseState `json:"leases,omitempty"`
}

// LeaseState is one durable lease row.
type LeaseState struct {
	Job      string `json:"job"`
	Priority int    `json:"priority"`
	Acquired uint64 `json:"acquired"`
	Plan     Plan   `json:"plan"`
}

// snapshotBody is the envelope body of a snapshot document.
type snapshotBody struct {
	Gen   uint64 `json:"gen"`
	State State  `json:"state"`
}

// FleetStateFrom converts a live ledger snapshot to its durable shape.
func FleetStateFrom(s fleet.Snapshot) *FleetState {
	fs := &FleetState{
		Version:  s.Version,
		JobCap:   s.JobCap,
		Capacity: wire.FromPool(s.Capacity),
	}
	for _, le := range s.Leases {
		fs.Leases = append(fs.Leases, LeaseState{
			Job:      le.Job,
			Priority: le.Priority,
			Acquired: le.Acquired,
			Plan:     PlanFrom(le.Plan),
		})
	}
	return fs
}

// Ledger restores a live fleet ledger from the durable shape, re-validating
// every invariant (see fleet.FromSnapshot).
func (fs *FleetState) Ledger() (*fleet.Ledger, error) {
	s := fleet.Snapshot{
		Version:  fs.Version,
		JobCap:   fs.JobCap,
		Capacity: fs.Capacity.Cluster(),
	}
	for _, le := range fs.Leases {
		s.Leases = append(s.Leases, fleet.Lease{
			Job:      le.Job,
			Priority: le.Priority,
			Acquired: le.Acquired,
			Plan:     le.Plan.Core(),
		})
	}
	l, err := fleet.FromSnapshot(s)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return l, nil
}

// validate rejects malformed states by name before they reach disk or a
// live service.
func (s *State) validate() error {
	seen := make(map[string]bool, len(s.Jobs))
	for i, j := range s.Jobs {
		if j.Name == "" {
			return fmt.Errorf("persist: job %d has an empty name", i)
		}
		if seen[j.Name] {
			return fmt.Errorf("persist: state lists job %q twice", j.Name)
		}
		seen[j.Name] = true
		if len(j.GPUs) == 0 {
			return fmt.Errorf("persist: job %q has no GPU types", j.Name)
		}
		if i > 0 && s.Jobs[i-1].Name > j.Name {
			return fmt.Errorf("persist: jobs out of order: %q after %q", j.Name, s.Jobs[i-1].Name)
		}
		if (j.LastPlan == nil) != (j.LastConstraints == nil) || (j.LastPlan == nil) != (j.LastObjective == "") {
			return fmt.Errorf("persist: job %q has a partial last-plan triple", j.Name)
		}
	}
	if s.Fleet != nil {
		for _, le := range s.Fleet.Leases {
			if !seen[le.Job] {
				return fmt.Errorf("persist: lease for unknown job %q", le.Job)
			}
		}
	}
	return nil
}

// Normalize sorts the state into its canonical encoding order. Callers
// assembling a State by hand (tests) should normalize before encoding;
// sailor.Service.PersistState emits canonical states already.
func (s *State) Normalize() {
	sort.Slice(s.Jobs, func(i, k int) bool { return s.Jobs[i].Name < s.Jobs[k].Name })
}

// EncodeSnapshot renders a state as the canonical snapshot document for
// generation gen. Equal states encode to identical bytes.
func EncodeSnapshot(gen uint64, state *State) ([]byte, error) {
	if state == nil {
		return nil, fmt.Errorf("persist: nil state")
	}
	if err := state.validate(); err != nil {
		return nil, err
	}
	doc, err := json.MarshalIndent(envelope[snapshotBody]{V: FormatVersion, Kind: kindSnapshot,
		Body: snapshotBody{Gen: gen, State: *state}}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("persist: marshal snapshot: %w", err)
	}
	return append(doc, '\n'), nil
}

// DecodeSnapshot parses a snapshot document, rejecting unknown schema
// versions, kinds, and fields by name.
func DecodeSnapshot(data []byte) (uint64, *State, error) {
	body, err := decodeEnvelope[snapshotBody](data, kindSnapshot)
	if err != nil {
		return 0, nil, err
	}
	if err := body.State.validate(); err != nil {
		return 0, nil, err
	}
	return body.Gen, &body.State, nil
}
