package planner

// Warm-start replanning state. A WarmCache persists the planner's two
// expensive caches across Plan/Replan calls on a churn trace:
//
//   - the H2 minimum-TP cache, whose entries are independent of
//     availability and fully reusable across replans,
//   - the per-candidate DP memos, keyed by (pool shape, pp, mbs, d, nb,
//     recompute, cost-lean, stage, region, remaining counts) — the complete
//     input of one solveDP node — so successive replans skip every region
//     state an earlier search already solved, and
//   - the candidate-plan estimates, keyed by the plan signature, so
//     re-materialised candidates skip the simulator's 1F1B makespan
//     evaluation (the measured hot spot of a warm replan).
//
// Both caches hold pure functions of their keys, so serving from them can
// never change which plan a completed search returns: a warm Replan picks
// the exact plan cold planning picks on the same pool, only faster.
//
// Concurrency and determinism: searches read a copy-on-write snapshot of
// the DP memo map taken when the search starts and publish their newly
// computed entries in one merge when they finish. Reads therefore never
// observe a concurrent writer, and a sequential caller (one replan after
// another, the elastic controller's shape) gets bit-identical results —
// including Explored and CacheHits — at any Options.Workers setting.
// Concurrent searches over one shared cache remain race-free and return
// correct plans; only their telemetry counters become schedule-dependent.
//
// A WarmCache is bound to the first planner fingerprint (model, objective,
// constraints, heuristics, evaluator instance) that uses it; planners with
// a different fingerprint fall back to cold search rather than mixing
// incompatible entries.

import (
	"strconv"
	"sync"

	"repro/internal/core"
)

// warmMaxEntries caps the persisted DP memo size. A merge that would grow
// past the cap drops the old generation and keeps only the newest search's
// entries, bounding memory on unboundedly long churn traces. Searches
// re-publish the entries they hit, so the retained set is the live working
// set, not just the latest search's misses.
const warmMaxEntries = 1 << 17

// warmDPKey is the packed persisted-memo key: the pool-shape descriptor,
// the scan parameters that change what the DP optimises, and the packed
// per-node state. A comparable struct, so snapshots merge and probe without
// re-hashing fmt-built strings — the shape string is computed once per
// search and shared by every key of that search.
type warmDPKey struct {
	shape     string
	pp        int32
	mbs       int32
	d         int32
	nb        int32
	recompute bool
	costLean  bool
	key       dpKey
}

// WarmCache carries planner state across replans. The zero value is not
// usable; call NewWarmCache.
type WarmCache struct {
	mu sync.RWMutex
	fp string
	// ev is the evaluator the cached nodes and estimates were computed
	// against, compared by identity. Holding the reference also keeps the
	// evaluator alive, so a recycled allocation can never alias a new
	// evaluator onto stale entries.
	ev     Evaluator
	dp     map[warmDPKey]*dpNode
	est    map[string]core.Estimate
	minTP  *minTPCache
	merges int
}

// appendEstKey serializes every estimate-relevant field of a plan in replica
// order into b — deliberately NOT Plan.String(), which groups identical
// replicas within a stage and so collapses orderings the simulator
// distinguishes (pipeline k is built from replica k of every stage, and
// cross-stage links are classified by zone pair). Built with raw byte
// appends so the hot in-search path pays one allocation (the map-key
// string), not a fmt call per field.
func appendEstKey(b []byte, plan core.Plan) []byte {
	b = strconv.AppendInt(b, int64(plan.MicroBatchSize), 10)
	if plan.Recompute {
		b = append(b, 'r')
	} else {
		b = append(b, 'f')
	}
	for _, st := range plan.Stages {
		b = append(b, '|', 's')
		b = strconv.AppendInt(b, int64(st.FirstLayer), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(st.NumLayers), 10)
		for _, r := range st.Replicas {
			b = append(b, ';')
			b = append(b, r.GPU...)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(r.TP), 10)
			b = append(b, ',')
			b = append(b, r.Zone.Name...)
		}
	}
	return b
}

// estKey is the warm estimate-cache key for a materialised plan. Both the
// in-search estimate path and the Replan seed check resolve through it.
func estKey(plan core.Plan) string {
	return string(appendEstKey(make([]byte, 0, 64), plan))
}

// PlanKey returns the canonical replica-order serialization of a plan — the
// same key the warm cache files plan estimates under. The serving layer's
// speculation cache keys its precomputed results with it (combined with the
// pool rendering), so a speculative entry is consulted only for a byte-
// identical (pool, incumbent plan) pair.
func PlanKey(plan core.Plan) string { return estKey(plan) }

// NewWarmCache returns an empty warm-start cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{
		dp:    map[warmDPKey]*dpNode{},
		est:   map[string]core.Estimate{},
		minTP: newMinTPCache(),
	}
}

// Clone returns an independent warm cache holding the same entries. The
// published DP and estimate generations are immutable (merge rebuilds them
// copy-on-write), so the clone shares them at zero cost, and the shared
// minimum-TP cache holds pure functions of its keys, so it stays shared
// too. Searches that merge into the clone never touch the original: the
// serving layer runs speculative prefetches on clones so a mispredicted
// prefetch leaves the job's real cache byte-untouched, and adopts the
// clone wholesale when the prediction hits.
func (w *WarmCache) Clone() *WarmCache {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return &WarmCache{
		fp:     w.fp,
		ev:     w.ev,
		dp:     w.dp,
		est:    w.est,
		minTP:  w.minTP,
		merges: w.merges,
	}
}

// snapshot binds the cache to (fp, ev) on first use and returns the
// current read-only DP memo and estimate generations plus the shared
// minimum-TP cache. ok is false when the cache already belongs to a
// different fingerprint or evaluator instance.
func (w *WarmCache) snapshot(fp string, ev Evaluator) (map[warmDPKey]*dpNode, map[string]core.Estimate, *minTPCache, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fp == "" && w.ev == nil {
		w.fp, w.ev = fp, ev
	}
	if w.fp != fp || w.ev != ev {
		return nil, nil, nil, false
	}
	return w.dp, w.est, w.minTP, true
}

// merge publishes the entries a finished search computed. The published
// maps are rebuilt copy-on-write so snapshots handed to in-flight searches
// are never mutated underneath them.
func (w *WarmCache) merge(fp string, dp map[warmDPKey]*dpNode, est map[string]core.Estimate) {
	if len(dp) == 0 && len(est) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fp != fp {
		return
	}
	// A steady-state search re-publishes only entries the cache already
	// holds; since cached values are pure functions of their keys, there is
	// nothing to write and the O(cache)-sized copy-on-write rebuild can be
	// skipped entirely — the merge degrades to an O(pending) key scan.
	if hasNewKeys(w.dp, dp) {
		next := make(map[warmDPKey]*dpNode, len(w.dp)+len(dp))
		if len(w.dp)+len(dp) <= warmMaxEntries {
			for k, v := range w.dp {
				next[k] = v
			}
		}
		for k, v := range dp {
			next[k] = v
		}
		w.dp = next
	}
	if hasNewKeys(w.est, est) {
		next := make(map[string]core.Estimate, len(w.est)+len(est))
		if len(w.est)+len(est) <= warmMaxEntries {
			for k, v := range w.est {
				next[k] = v
			}
		}
		for k, v := range est {
			next[k] = v
		}
		w.est = next
	}
	w.merges++
}

func hasNewKeys[K comparable, V any](have, pending map[K]V) bool {
	for k := range pending {
		if _, ok := have[k]; !ok {
			return true
		}
	}
	return false
}

// Entries reports the persisted cache size (DP memos plus plan estimates).
func (w *WarmCache) Entries() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.dp) + len(w.est)
}

// Merges reports how many searches have published entries into the cache.
func (w *WarmCache) Merges() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.merges
}
