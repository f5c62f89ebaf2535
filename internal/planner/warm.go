package planner

// Warm-start replanning state. A WarmCache persists two generations across
// Plan/Replan calls on a churn trace:
//
//   - the per-candidate DP memos, keyed by (pool shape, pp, mbs, d, nb,
//     cost-lean, stage, region ri, counts of regions ri..R-1 clamped to the
//     stage's lane caps) — everything one solveDP node reads, the caps
//     being a function of the other fields — so successive replans skip
//     every suffix state an earlier search already solved, and
//   - the results of completed searches, keyed by the pool they searched
//     (poolKey), so a replan of a pool already solved — a diurnal wave
//     cycling, a preemption storm returning to its base — is a lookup
//     that builds no region state. Only a search that ran to completion
//     stores its result; a deadline-cut or cancelled one stores nothing.
//
// Both generations hold pure functions of their keys, so serving from them can
// never change which plan a completed search returns: a warm Replan picks
// the exact plan cold planning picks on the same pool, only faster.
//
// Ownership: the cache owns every byte it keeps alive. A stored result is a
// detached copy and each hit returns its own copy. A search works in scratch
// it recycles between its (pp, mbs) jobs and drops when it ends
// (search.go), and nothing it stores points into that scratch: a DP node
// that will be stored is built in storage of its own — node and group
// composition in one exactly-sized allocation (ownedNode), its child either
// such a node or one the cache served — so a cache entry costs its own size,
// not the arena chunk it happened to be carved from.
//
// Concurrency and determinism: a cache serves one search at a time. A warm
// search takes the cache before its stored-result lookup and holds it until
// it returns, after storing its entries, so its workers read the live DP
// memo map without locks and the search writes what it computed straight
// into it. A
// search waiting for the cache honours its context: a caller whose deadline
// passes in the queue gets the answer of a search cut off before it began.
// A sequential caller (one replan after another, the elastic controller's
// shape) gets bit-identical results — including Explored and CacheHits — at
// any Options.Workers setting, and concurrent searches on one cache give
// the counters of running them one after another in the order they took it.
//
// A WarmCache is bound to the first planner fingerprint (model, objective,
// constraints, heuristics, evaluator instance) that uses it; planners with
// a different fingerprint fall back to cold search rather than mixing
// incompatible entries.

import (
	"context"
	"slices"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
)

// warmMaxEntries caps the persisted DP memo size. A store that would grow
// past the cap drops the old generation and keeps only the newest search's
// entries, bounding memory on unboundedly long churn traces. A search's
// entries include those the cache served it, so the retained set is the
// live working set, not just the latest search's misses.
const warmMaxEntries = 1 << 17

// warmMaxResults caps the stored search results under the same rule.
const warmMaxResults = 1 << 10

// warmDPKey is the packed persisted-memo key: the pool-shape descriptor,
// the scan parameters that change what the DP optimises, and the packed
// per-node state. A comparable struct, so searches store and probe without
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

// warmEntry is one DP memo entry a search stores.
type warmEntry struct {
	key warmDPKey
	val *dpNode
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
	// sem is the one-slot channel a search holds while it uses the cache;
	// it guards every field below.
	sem chan struct{}
	fp  string
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
// pair), so plans sharing a key share an estimate: a plan identity for
// maps and digests.
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
	return &WarmCache{sem: make(chan struct{}, 1)}
}

// acquire takes the cache for one search, or gives up with ctx's error when
// ctx is done first.
func (w *WarmCache) acquire(ctx context.Context) error {
	select {
	case w.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release hands the cache to the next search.
func (w *WarmCache) release() { <-w.sem }

// bind binds a held cache to (fp, ev) on first use. It reports false when
// the cache already belongs to a different fingerprint or evaluator
// instance.
func (w *WarmCache) bind(fp string, ev Evaluator) bool {
	if w.fp == "" && w.ev == nil {
		w.fp, w.ev = fp, ev
	}
	return w.fp == fp && w.ev == ev
}

// store files a finished search's DP entries — those the cache served it,
// so over-cap eviction keeps the working set, and those it computed — and,
// when it ran to completion, its result under the pool key. Values are pure
// functions of their keys, so a search that found every entry already
// stored writes nothing. The first fill, and a fill that would grow past
// warmMaxEntries, starts a fresh map sized for the search's own entries.
func (w *WarmCache) store(entries []warmEntry, key string, res *Result) {
	missing := 0
	for _, e := range entries {
		if _, ok := w.dp[e.key]; !ok {
			missing++
		}
	}
	if missing > 0 {
		if len(w.dp) == 0 || len(w.dp)+len(entries) > warmMaxEntries {
			w.dp = make(map[warmDPKey]*dpNode, len(entries))
		}
		for _, e := range entries {
			w.dp[e.key] = e.val
		}
	}
	if res != nil {
		if w.res == nil || len(w.res) >= warmMaxResults {
			w.res = make(map[string]*Result, 1)
		}
		w.res[key] = res
	}
}

// Entries reports the persisted cache size in DP memos. Stored search
// results are not counted.
func (w *WarmCache) Entries() int {
	w.sem <- struct{}{}
	defer w.release()
	return len(w.dp)
}
