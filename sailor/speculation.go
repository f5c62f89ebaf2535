package sailor

// Speculative plan prefetch: the zero-latency reconfiguration layer of the
// Service. Each job's sequence of requested pools feeds a deterministic
// trace.Forecaster; after every replan the service predicts the next few
// pools the job is likely to see and — when the planner semaphore has idle
// capacity — precomputes their plans into a small per-job speculation
// cache. A replan whose (pool, previous plan, objective, constraints) key
// was precomputed returns instantly with the cached result, marked
// Result.SpeculativeHit; everything else falls through to the ordinary
// search, and a miss purges the job's remaining entries (the forecast was
// wrong, so whatever else it predicted is stale too). Fleet mode does not
// speculate: a fleet replan's pool is the ledger view at its commit turn,
// which other jobs' commits shape, and the search it would save is a small
// part of a step that journals every lease change.
//
// Exactness: a prefetched result is a real planner search over a clone of
// the job's warm cache — the exact cache state the foreground search would
// start from — with the exact options and pool bytes of the request it
// predicts. On a hit the clone (now holding the search's merge) is adopted
// as the job's cache, so the cache trajectory, plans, estimates, and
// search telemetry all match what the foreground search would have
// produced byte for byte (TestWireDeterminism still holds with the layer
// on); on a miss every clone is discarded and the job's cache is untouched.
// Only Result.SpeculativeHit distinguishes a served prefetch.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/planner"
	"repro/internal/trace"
)

// specForecastK is how many forecast pools each prefetch round speculates
// on: the periodic prediction plus one frequency-ranked fallback.
const specForecastK = 2

// specMaxEntries bounds one job's speculation cache; beyond it the oldest
// entry is dropped (the forecast window moves with the trace, so old
// predictions are the least likely to hit).
const specMaxEntries = 64

// specKey identifies one precomputable replan: the exact pool bytes, the
// plan being replanned from, and the objective/constraints of the request.
// Any difference in what the foreground search would see is a different key.
func specKey(q searchReq) string {
	return fmt.Sprintf("%v|%+v|%s|%s", q.obj, q.cons, planner.PlanKey(q.prev), q.pool.String())
}

// specEntry is one speculated replan. done closes when the prefetch
// resolves; res/ok are valid only after. An entry whose prefetch found no
// idle planner capacity (or whose search failed) resolves with ok=false.
// q is the predicted request, searching into q.cache — a clone of base, the
// job's warm cache at launch; both are written before the worker starts.
type specEntry struct {
	done chan struct{}
	base *planner.WarmCache
	q    searchReq
	res  PlanResult
	ok   bool
}

// specCache is one job's bounded speculation cache. The zero value is
// ready to use (restored jobs never touch their literal constructors).
type specCache struct {
	mu      sync.Mutex
	entries map[string]*specEntry
	order   []string // insertion order, oldest first
}

// begin registers a pending entry under key and returns it, or nil when the
// key is already present (an identical prefetch is in flight or done).
func (c *specCache) begin(key string) *specEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = map[string]*specEntry{}
	}
	if _, ok := c.entries[key]; ok {
		return nil
	}
	if len(c.order) == specMaxEntries {
		delete(c.entries, c.order[0])
		c.order = c.order[:copy(c.order, c.order[1:])]
	}
	e := &specEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, key)
	return e
}

// take removes and returns the entry under key, nil when absent. The
// caller joins e.done; a pending prefetch is consumed the moment its
// consumer commits to waiting for it.
func (c *specCache) take(key string) *specEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	delete(c.entries, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return e
}

// purge drops every entry. In-flight prefetches keep running (their warm
// merges are exact and still useful); they just can no longer be consulted.
func (c *specCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = nil
	c.order = nil
}

// consultSpec answers a replan from the job's speculation cache when the
// exact request was precomputed. A pending prefetch is joined, not raced:
// the result it is already computing is the result the foreground search
// would compute. A miss purges the job's cache — the forecast that seeded
// it mispredicted, so whatever else it predicted from the same state is
// stale too.
func (s *Service) consultSpec(j *serviceJob, q searchReq) (PlanResult, bool) {
	e := j.spec.take(specKey(q))
	if e != nil {
		<-e.done
		if e.ok {
			s.specHits.Add(1)
			s.adoptSpec(j, e)
			res := e.res
			res.SpeculativeHit = true
			return res, true
		}
	}
	s.specMisses.Add(1)
	j.spec.purge()
	return PlanResult{}, false
}

// adoptSpec installs a hit's post-search warm clone as the job's cache —
// exactly the merge the foreground search would have published — unless a
// concurrent request already advanced the cache past the prefetch's base
// (then the clone is just dropped; cached entries are pure functions of
// their keys, so nothing is lost but reuse).
func (s *Service) adoptSpec(j *serviceJob, e *specEntry) {
	s.mu.Lock()
	if j.warm == e.base {
		j.warm = e.q.cache
	}
	s.mu.Unlock()
}

// warmRef reads the job's current warm cache under the service lock:
// speculative adoption swaps the pointer, so bare reads would race.
func (s *Service) warmRef(j *serviceJob) *planner.WarmCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.warm
}

// observeReplan feeds a completed replan into the job's forecaster and
// launches a prefetch round for the predicted next pools: the same request
// as q, replanned from the plan it just produced. Called after the
// foreground result is in hand (and its planner slot released), so the
// prefetch competes only for idle capacity. The round runs on one
// background worker, sequentially — holding at most one planner slot, it
// can always proceed whenever the service is otherwise idle, at any
// MaxConcurrent.
func (s *Service) observeReplan(name string, j *serviceJob, plan Plan, q searchReq) {
	s.mu.Lock()
	if s.jobs[name] != j {
		s.mu.Unlock()
		return
	}
	if j.forecast == nil {
		j.forecast = trace.NewForecaster()
	}
	j.forecast.ObservePool(q.pool)
	preds := j.forecast.Forecast(specForecastK)
	base := j.warm
	s.mu.Unlock()
	q.prev, q.idle = plan, true
	var round []*specEntry
	for _, p := range preds {
		q.pool = p
		if e := j.spec.begin(specKey(q)); e != nil {
			q.cache = base.Clone()
			e.base, e.q = base, q
			round = append(round, e)
		}
	}
	if len(round) == 0 {
		return
	}
	s.specWG.Add(1)
	go func() {
		defer s.specWG.Done()
		for _, e := range round {
			s.prefetch(name, j, e)
		}
	}()
}

// prefetch precomputes one speculated replan. The search is idle-slot only:
// speculation uses capacity the foreground load left idle, and a busy
// semaphore resolves the entry as a miss rather than queueing work the
// forecast may not even need.
func (s *Service) prefetch(name string, j *serviceJob, e *specEntry) {
	defer close(e.done)
	res, err := s.search(context.Background(), name, j, e.q)
	if err != nil {
		return
	}
	e.res, e.ok = res, true
	s.specPrecomputed.Add(1)
}

// Quiesce blocks until every in-flight speculative prefetch has resolved.
// Benchmarks and tests call it between replans so the speculation cache —
// and the warm-cache trajectory behind it — is a deterministic function of
// the request history rather than of scheduling.
func (s *Service) Quiesce() { s.specWG.Wait() }
