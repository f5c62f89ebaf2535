package planner

// Bound-based pruning: before paying for a solveDP pass over one DP degree,
// compute cheap admissible bounds on the best iteration time and cost any
// plan from that (pp, mbs, d) candidate could achieve, and skip the pass
// when even the bound cannot beat the incumbent (the deterministic floor
// job's result or the task's own scan best) or satisfy the constraints.
//
// Exactness contract: a pruned candidate must be one the full search would
// have discarded anyway, so the chosen plan — and therefore every golden,
// determinism, and warm-vs-cold oracle — is identical with pruning on or
// off; only Explored/CacheHits telemetry shrinks. The bounds rest on two
// facts about the simulator's estimate:
//
//   - Iteration time: every stage of every pipeline executes nb forward and
//     nb backward passes back to back or waiting, so the exact 1F1B
//     makespan (nb <= 4*pp) is at least nb times the cheapest possible
//     per-microbatch stage time B — at least minLayers * (fastest per-layer
//     fwd+bwd over every available GPU type and TP degree at this mbs).
//     Beyond the exact window the simulator extrapolates t(4p) +
//     (nb-4p)*period with period = (t(4p)-t(2p))/(2p); t(4p) >= 4p*B as
//     above, and period >= B/2 because the 2p-microbatch schedule is an
//     order-preserving restriction of the 4p one (so every common op
//     finishes no earlier in the longer run), the globally last op of any
//     1F1B run is stage 0's final backward, and after that op the longer
//     run still serializes 2p backwards plus p+1 forwards on stage 0 —
//     at least p*(f0+b0) >= 2p*(B/2) of extra busy time. Hence the bound
//     uses nb units in the exact regime and 4p + (nb-4p)/2 beyond it.
//   - Cost: the compute bill is rate * GPUs * iteration time summed over
//     replicas, and a plan occupies at least pp*d GPUs (TP >= 1), so cost
//     is at least pp*d * cheapest-rate * the iteration-time bound (egress
//     only adds).
//
// Both bounds are scaled by pruneSafety so floating-point reassociation
// between the bound's arithmetic and the simulator's can never flip an
// exact tie; pruning fires only on strict inequality.

import "repro/internal/core"

// pruneSafety shrinks every lower bound by one part in 10^9 — far above
// float64 accumulation error over these expressions, far below any real
// metric difference — so bounds stay admissible under reassociation.
const pruneSafety = 1 - 1e-9

// candidateBounds carries the per-(pp, mbs) quantities the d-loop bounds
// are assembled from.
type candidateBounds struct {
	// minLayers is the smallest per-stage layer count of the partition.
	minLayers int
	// perLayerMin is the fastest per-layer fwd+bwd seconds over every GPU
	// type with available capacity and every TP degree on its node, at the
	// task's microbatch size. Zero disables pruning
	// (no admissible bound could be formed).
	perLayerMin float64
	// minRate is the cheapest USD/second per GPU over the available types.
	minRate float64
}

// candidateBounds resolves the bound inputs for one (layer partition, mbs)
// candidate: the partition's smallest stage joins the per-mbs evaluator
// sweep, which is computed once per search pass and shared by
// every task (the bound depends only on the pool's types, not on the
// partition). Pruning activates only when the evaluator declares the
// admissibility property (BoundPrunable) — an unknown backend searches
// unpruned.
func (t *task) candidateBounds(layers []int) candidateBounds {
	if t.pl.Opts.DisableBoundPruning || !t.s.pruneOK {
		return candidateBounds{}
	}
	eb := t.s.evalBoundsFor(t.mbs)
	b := candidateBounds{minLayers: layers[0], perLayerMin: eb.perLayerMin, minRate: eb.minRate}
	for _, l := range layers {
		if l < b.minLayers {
			b.minLayers = l
		}
	}
	return b
}

// evalBounds is the mbs-dependent part of the pruning bound.
type evalBounds struct {
	perLayerMin float64
	minRate     float64
}

// evalBoundsFor computes (once per search pass and mbs, under a mutex —
// the handful of evaluator queries per key make contention irrelevant)
// the fastest per-layer fwd+bwd over every available GPU type and TP
// degree, and the cheapest per-GPU rate.
func (s *search) evalBoundsFor(mbs int) evalBounds {
	s.boundMu.Lock()
	defer s.boundMu.Unlock()
	if b, ok := s.bounds[mbs]; ok {
		return b
	}
	var b evalBounds
	for ti, g := range s.rs.types {
		avail := false
		for ri := range s.rs.regions {
			if s.rs.count(ri, ti) > 0 {
				avail = true
				break
			}
		}
		if !avail {
			continue
		}
		for tp := 1; tp <= s.nodeCap[ti]; tp *= 2 {
			v, err := s.pl.Sim.StageComputeTimeWith(g, tp, mbs, 1, false, false)
			if err == nil && (b.perLayerMin == 0 || v < b.perLayerMin) {
				b.perLayerMin = v
			}
		}
		if r := s.ratePerSec[ti]; b.minRate == 0 || r < b.minRate {
			b.minRate = r
		}
	}
	if s.bounds == nil {
		s.bounds = map[int]evalBounds{}
	}
	s.bounds[mbs] = b
	return b
}

// prunable reports whether the (d, nb) scan can be skipped outright: its
// admissible iteration-time and cost bounds already lose — strictly — to
// the floor job's result, the task's local best, or the constraints.
func (t *task) prunable(b candidateBounds, pp, d, nb int, localBest *candidate) bool {
	if b.perLayerMin == 0 {
		return false
	}
	units := float64(nb)
	if lim := 4 * pp; nb > lim {
		// Extrapolated regime: the 4p prefix is fully contained and each
		// extrapolated microbatch adds at least half a straggler period.
		units = float64(lim) + float64(nb-lim)/2
	}
	iterLB := units * float64(b.minLayers) * b.perLayerMin * pruneSafety
	costLB := float64(pp*d) * b.minRate * iterLB

	cons := t.pl.Opts.Constraints
	// Incumbent-aware budget tightening: under a cost budget no candidate
	// whose cost bound already exceeds the budget can produce any valid
	// plan, whatever the objective.
	if cons.MaxCostPerIter > 0 && costLB > cons.MaxCostPerIter {
		return true
	}
	if cons.MinThroughput > 0 && iterLB > (1/cons.MinThroughput)*(1+1e-9) {
		return true
	}

	// Objective pruning against the best already-known result. Strict
	// comparisons keep exact ties alive for the signature tie-break.
	beaten := func(res *Result) bool {
		if res == nil {
			return false
		}
		if t.pl.Opts.Objective == core.MinCost {
			return costLB > res.Estimate.Cost()
		}
		return iterLB > res.Estimate.IterTime
	}
	if beaten(t.floor) {
		return true
	}
	if localBest != nil && beaten(&localBest.res) {
		return true
	}
	return false
}
