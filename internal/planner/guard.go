package planner

// The capacity guard: a thin validation layer between the planner and a
// free-capacity view of a shared fleet. It re-checks every plan the planner
// is about to return — including a warm-start seed carried over from a
// previous deployment — against that view, so a plan that would
// oversubscribe it can never leave the search. Validation reuses
// cluster.Pool.CanFit, the same demand accounting the ledger's leases use.
//
// A search over the view itself cannot exceed it (plans place replicas only
// where the pool has room, a seed must fit the pool, a stored result was
// solved on a pool of the same shape), so sailor.Service sets no guard. The
// benchmark module's per-layer replay and this package's tests are its
// only users.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
)

// CapacityGuard validates candidate plans against a free-capacity view. The
// zero value (and a nil guard) admits everything.
type CapacityGuard struct {
	view *cluster.Pool
}

// NewCapacityGuard returns a guard over a free-capacity snapshot. The view
// is cloned, so later mutation by the caller cannot skew admissions
// mid-search.
func NewCapacityGuard(view *cluster.Pool) *CapacityGuard {
	if view == nil {
		return nil
	}
	return &CapacityGuard{view: view.Clone()}
}

// Check reports whether the view can host the plan's full GPU demand.
func (g *CapacityGuard) Check(plan core.Plan) error {
	if g == nil || g.view == nil {
		return nil
	}
	if !g.view.CanFit(plan) {
		// Subtract names the first deficient cell; CanFit only says "no".
		err := g.view.Clone().Subtract(plan)
		return fmt.Errorf("planner: plan exceeds the capacity guard's free view: %w", err)
	}
	return nil
}
