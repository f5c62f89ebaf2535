package planner

// Warm-start replanning state. A WarmCache keeps the results of completed
// searches across Plan/Replan calls on a churn trace, keyed by the pool they
// searched (poolKey), so a replan of a pool already solved — a diurnal wave
// cycling, a preemption storm returning to its base — is a lookup that
// builds no region state. Only a search that ran to completion stores its
// result; a deadline-cut or cancelled one stores nothing. A stored result
// is a pure function of its key, so serving it can never change which plan
// a replan returns: a warm Replan picks the exact plan cold planning picks
// on the same pool. A pool the cache has not seen is searched cold.
//
// Ownership: the cache owns every byte it keeps alive. A stored result is a
// detached copy and each hit returns its own copy; nothing in it points
// into the scratch a search works in (search.go).
//
// Concurrency and determinism: a cache serves one search at a time. A warm
// search takes the cache before its stored-result lookup and holds it until
// it returns, after storing its result. A search waiting for the cache
// honours its context: a caller whose deadline passes in the queue gets the
// answer of a search cut off before it began. A sequential caller (one
// replan after another, the elastic controller's shape) gets bit-identical
// results — including Explored and CacheHits — at any Options.Workers
// setting, and concurrent searches on one cache give the counters of
// running them one after another in the order they took it.
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

// warmMaxResults caps the stored search results. A store that would grow
// past the cap starts a fresh map, bounding memory on unboundedly long
// churn traces.
const warmMaxResults = 1 << 10

// WarmCache carries completed search results across replans. The zero
// value is not usable; call NewWarmCache.
type WarmCache struct {
	// sem is the one-slot channel a search holds while it uses the cache;
	// it guards every field below.
	sem chan struct{}
	fp  string
	// ev is the evaluator the stored results were computed against,
	// compared by identity. Holding the reference also keeps the evaluator
	// alive, so a recycled allocation can never alias a new evaluator onto
	// stale entries.
	ev  Evaluator
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

// store files a completed search's result under its pool key. The first
// store, and one that would grow past warmMaxResults, starts a fresh map.
func (w *WarmCache) store(key string, res *Result) {
	if w.res == nil || len(w.res) >= warmMaxResults {
		w.res = make(map[string]*Result, 1)
	}
	w.res[key] = res
}

// Entries reports the number of stored search results.
func (w *WarmCache) Entries() int {
	w.sem <- struct{}{}
	defer w.release()
	return len(w.res)
}
