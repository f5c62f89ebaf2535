package planner

// Warm-start replanning state. A WarmCache persists two generations across
// Plan/Replan calls on a churn trace:
//
//   - the per-candidate DP memos, keyed by (pool shape, pp, mbs, d, nb,
//     cost-lean, stage, region ri, counts of regions ri..R-1) — everything
//     one solveDP node reads — so successive replans skip every suffix
//     state an earlier search already solved, and
//   - the results of completed searches, keyed by the pool they searched
//     (poolKey), so a replan of a pool already solved — a diurnal wave
//     cycling, a preemption storm returning to its base — is a lookup
//     that builds no region state. Only a search that ran to completion
//     publishes its result; a deadline-cut or cancelled one stores nothing.
//
// Both generations hold pure functions of their keys, so serving from them can
// never change which plan a completed search returns: a warm Replan picks
// the exact plan cold planning picks on the same pool, only faster.
//
// Ownership: the cache owns every byte it keeps alive. A stored result is a
// detached copy and each hit returns its own copy. A search works in scratch
// it recycles between its (pp, mbs) jobs and drops when it ends
// (search.go), and nothing it publishes points into that scratch: a DP node
// that will be published is built in storage of its own — node and group
// composition in one exactly-sized allocation (ownedNode), its child either
// such a node or one the cache served — so a cache entry costs its own size,
// not the arena chunk it happened to be carved from.
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
	"maps"
	"slices"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
)

// warmMaxEntries caps the persisted DP memo size. A merge that would grow
// past the cap drops the old generation and keeps only the newest search's
// entries, bounding memory on unboundedly long churn traces. Searches
// re-publish the entries they hit, so the retained set is the live working
// set, not just the latest search's misses.
const warmMaxEntries = 1 << 17

// warmMaxResults caps the stored search results under the same rule.
const warmMaxResults = 1 << 10

// warmDPKey is the packed persisted-memo key: the pool-shape descriptor,
// the scan parameters that change what the DP optimises, and the packed
// per-node state. A comparable struct, so snapshots merge and probe without
// re-hashing fmt-built strings — the shape string is computed once per
// search and shared by every key of that search.
type warmDPKey struct {
	shape    string
	pp       int32
	mbs      int32
	d        int32
	nb       int32
	costLean bool
	key      dpKey
}

// warmEntry is one key/value pair a search publishes.
type warmEntry[K comparable, V any] struct {
	key K
	val V
}

// owned lays a cache-owned dpNode and its group composition — G is an array
// of replicaGroup — out in one exactly-sized allocation.
type owned[G any] struct {
	n dpNode
	g G
}

// ownedNode builds a node in storage of its own, copying its group
// composition out of whatever scratch holds it.
func ownedNode(n dpNode) *dpNode {
	var dst *dpNode
	var groups []replicaGroup
	switch len(n.choice.groups) {
	case 1:
		o := new(owned[[1]replicaGroup])
		dst, groups = &o.n, o.g[:0]
	case 2: // a stage mixes at most two GPU types
		o := new(owned[[2]replicaGroup])
		dst, groups = &o.n, o.g[:0]
	default:
		dst = new(dpNode)
	}
	*dst = n
	dst.choice.groups = append(groups, n.choice.groups...)
	return dst
}

// WarmCache carries planner state across replans. The zero value is not
// usable; call NewWarmCache.
type WarmCache struct {
	mu sync.RWMutex
	fp string
	// ev is the evaluator the cached nodes and results were computed
	// against, compared by identity. Holding the reference also keeps the
	// evaluator alive, so a recycled allocation can never alias a new
	// evaluator onto stale entries.
	ev  Evaluator
	dp  map[warmDPKey]*dpNode
	res map[string]*Result
}

// poolKey is the result-cache key of a pool: every cell a search reads —
// each zone's region and name (Zones order) and its count of each GPU type
// (GPUTypes order), negative counts included, which Pool.Entries skips.
// Zero-count cells read as absent, so a pool carrying an explicit zero
// shares the key of its zero-free twin; the region is part of the key
// because region state buckets zones by it (Pool.String drops it).
func poolKey(pool *cluster.Pool) string {
	types := pool.GPUTypes()
	var buf [256]byte
	b := buf[:0]
	for _, g := range types {
		b = append(b, g...)
		b = append(b, 0)
	}
	for _, z := range pool.Zones() {
		b = append(b, '|')
		b = append(b, z.Region...)
		b = append(b, 0)
		b = append(b, z.Name...)
		for _, g := range types {
			b = append(b, 0)
			b = strconv.AppendInt(b, int64(pool.Available(z, g)), 10)
		}
	}
	return string(b)
}

// detachResult copies a result's plan and stage times out of whatever
// storage they share.
func detachResult(r Result) Result {
	r.Plan = detachPlan(r.Plan)
	r.Estimate.StageTimes = slices.Clone(r.Estimate.StageTimes)
	return r
}

// PlanKey returns the canonical replica-order serialization of a plan:
// every estimate-relevant field in replica order — deliberately NOT
// Plan.String(), which groups identical replicas within a stage and so
// collapses orderings the simulator distinguishes (pipeline k is built from
// replica k of every stage, and cross-stage links are classified by zone
// pair). The serving layer's speculation cache keys its precomputed results
// with it (combined with the pool rendering), so a speculative entry is
// consulted only for a byte-identical (pool, incumbent plan) pair.
func PlanKey(plan core.Plan) string {
	b := strconv.AppendInt(make([]byte, 0, 64), int64(plan.MicroBatchSize), 10)
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
	return string(b)
}

// NewWarmCache returns an empty warm-start cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{
		dp:  map[warmDPKey]*dpNode{},
		res: map[string]*Result{},
	}
}

// Clone returns an independent warm cache holding the same entries. The
// published DP and result generations are immutable (merge rebuilds them
// copy-on-write), so the clone shares them at zero cost. Searches that merge into the clone never touch the original: the
// serving layer runs speculative prefetches on clones so a mispredicted
// prefetch leaves the job's real cache byte-untouched, and adopts the
// clone wholesale when the prediction hits.
func (w *WarmCache) Clone() *WarmCache {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return &WarmCache{fp: w.fp, ev: w.ev, dp: w.dp, res: w.res}
}

// snapshot binds the cache to (fp, ev) on first use and returns the
// current read-only DP memo generation. ok is false when the cache already
// belongs to a different fingerprint or evaluator instance.
func (w *WarmCache) snapshot(fp string, ev Evaluator) (map[warmDPKey]*dpNode, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fp == "" && w.ev == nil {
		w.fp, w.ev = fp, ev
	}
	if w.fp != fp || w.ev != ev {
		return nil, false
	}
	return w.dp, true
}

// result returns a copy of the stored result of a completed search over the
// pool keyed key, when the cache is bound to (fp, ev) and holds one.
func (w *WarmCache) result(fp string, ev Evaluator, key string) (Result, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	r, ok := w.res[key]
	if !ok || w.fp != fp || w.ev != ev {
		return Result{}, false
	}
	return detachResult(*r), true
}

// warmPending is what a search publishes when it ends: the entries the
// snapshot served it (so over-cap eviction keeps the working set), the
// entries it computed and, when it ran to completion, its result.
type warmPending struct {
	dp  []warmEntry[warmDPKey, *dpNode]
	res []warmEntry[string, *Result]
}

// merge publishes the entries of a finished search. The published maps are
// rebuilt copy-on-write so snapshots handed to in-flight searches are never
// mutated underneath them.
func (w *WarmCache) merge(fp string, p warmPending) {
	if len(p.dp) == 0 && len(p.res) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fp != fp {
		return
	}
	w.dp = publish(w.dp, p.dp, warmMaxEntries)
	w.res = publish(w.res, p.res, warmMaxResults)
}

// publish returns the generation that follows cur once a search's entries
// are folded in. A steady-state search re-publishes only entries the cache
// already holds — values are pure functions of their keys, so nothing is
// written and cur is returned as is: the merge is an O(pending) key scan.
// Past limit entries the old generation is dropped and the next holds just
// the search's own entries; either way it is sized for what it will hold.
func publish[K comparable, V any](cur map[K]V, pending []warmEntry[K, V], limit int) map[K]V {
	missing := 0
	for _, e := range pending {
		if _, ok := cur[e.key]; !ok {
			missing++
		}
	}
	if missing == 0 {
		return cur
	}
	var next map[K]V
	if len(cur)+len(pending) <= limit {
		next = make(map[K]V, len(cur)+missing)
		maps.Copy(next, cur)
	} else {
		next = make(map[K]V, len(pending))
	}
	for _, e := range pending {
		next[e.key] = e.val
	}
	return next
}

// Entries reports the persisted cache size in DP memos. Stored search
// results are not counted.
func (w *WarmCache) Entries() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.dp)
}
