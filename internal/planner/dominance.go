package planner

// Dominance pruning across GPU-type stage compositions: inside one solveDP
// state, a candidate composition is skipped — before its whole child subtree
// is recursed into — when it is dominated by an already-enumerated sibling,
// meaning even the best completion the candidate could possibly reach loses
// strictly to the suffix the sibling already completed.
//
// Why the comparison goes through an admissible completion bound instead of
// a field-by-field filter over the compositions themselves: two siblings
// leave different remaining-capacity vectors behind, so their child states
// are different memo entries, and the suffix chosen under the looser state
// does not in general combine field-for-field better at this stage (the
// straggler and sync terms compose through max, which has no optimal
// substructure). Pruning is exact only against a bound that holds for every
// completion of the dominated composition:
//
//	metric(choice, any child) = nb*straggler + sumTime + maxSync
//	                          >= nb*max(perMB, sufMax) + perMB + sufSum + sync
//
// where sufSum and sufMax are the sum and maximum of the per-stage floors of
// the remaining stages: for every suffix stage, the fastest fwd+bwd time any
// available GPU type and power-of-two TP degree can quote for that stage's
// layer slice (quoted by the same stageTime call the search scores
// compositions with, so the floors are exactly the evaluator's own numbers).
// Every completion must pay at least sufSum in warm-up/cool-down time and its
// straggler can never beat the slowest per-stage floor, so a strict loss on
// the bound is a strict loss on the real metric and the composition can
// never win the state's argmax — ties are untouched, the memoized winner is
// unchanged, and plans stay bit-identical with the knob on or off (asserted
// by TestDominancePruningExact). Only Explored shrinks: a pruned
// composition's child states are never visited, which is where the
// heterogeneous cold search spends its time.
//
// In the cost-lean pass the comparison order puts the resource cost rate
// first, so the bound used there is the rate one: the composition's own
// rate plus at least rest*d GPUs (TP >= 1) of the cheapest available type.
//
// Bounds are scaled by pruneSafety so floating-point reassociation between
// the bound's arithmetic and the DP's own sums can never flip an exact tie,
// pruning fires only on strict inequality, and the floors are admissible
// because Evaluator quotes are pure (see Evaluator).
// Options.DisableDominancePruning turns it off for ablations; it is excluded
// from the warm-cache fingerprint because a completed search returns the
// same result either way.

// pruneSafety shrinks every lower bound by one part in 10^9 — far above
// float64 accumulation error over these expressions, far below any real
// metric difference — so bounds stay admissible under reassociation.
const pruneSafety = 1 - 1e-9

// initDominance resolves the per-task dominance-bound inputs for one layer
// partition: the per-stage time floors (folded into suffix sums and suffix
// maxima).
func (t *task) initDominance(layers []int) {
	t.domOn = false
	if t.pl.Opts.DisableDominancePruning {
		return
	}
	pp := len(layers)
	t.domSufSum, t.domSufMax = resized(t.domSufSum, pp+1), resized(t.domSufMax, pp+1)
	t.domSufSum[pp], t.domSufMax[pp] = 0, 0
	for s := pp - 1; s >= 0; s-- {
		// The floor sweeps the types available anywhere at task start;
		// availability only shrinks during the scan, so the minimum over
		// this superset stays a valid floor for every reachable state.
		floor := 0.0
		for ti := range t.s.rs.types {
			if !t.s.rs.available(ti) {
				continue
			}
			for tp := 1; tp <= t.s.nodeCap[ti]; tp *= 2 {
				if v, err := t.stageTime(s, ti, tp); err == nil && (floor == 0 || v < floor) {
					floor = v
				}
			}
		}
		if floor == 0 {
			return // a stage with no admissible time: no bound can be formed
		}
		t.domSufSum[s] = t.domSufSum[s+1] + floor
		t.domSufMax[s] = floor
		if t.domSufMax[s+1] > floor {
			t.domSufMax[s] = t.domSufMax[s+1]
		}
	}
	t.domOn = true
}

// dominated reports whether a composition at stage i can be skipped: its
// admissible completion bound loses strictly to the state's best
// already-completed sibling suffix on the comparison's primary key.
func (t *task) dominated(c stageChoice, best nodeStats, i, pp, d, nb int) bool {
	if t.costLean {
		rest := pp - 1 - i
		rateLB := (c.rateUSD + float64(rest*d)*t.s.minRate) * pruneSafety
		return rateLB > best.rateUSD
	}
	straggler := c.perMB
	if m := t.domSufMax[i+1]; m > straggler {
		straggler = m
	}
	lb := (float64(nb)*straggler + c.perMB + t.domSufSum[i+1] + c.sync) * pruneSafety
	return lb > best.metric(nb)
}
