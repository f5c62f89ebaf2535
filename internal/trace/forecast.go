package trace

// Availability forecasting. A Forecaster watches the sequence of
// availability snapshots a job (or a fleet) has seen and predicts which
// pools it is most likely to see next. Nothing in the serving path
// consults it: the benchmark module replays it as a standalone layer, and
// it goes once that replay does.
//
// The model is deliberately tiny and fully deterministic:
//
//   - Cyclic histories (diurnal-wave's 24h capacity wave, a preemption
//     storm replaying day after day) are detected by suffix periodicity
//     over the canonical pool renderings: the smallest period p whose last
//     two-to-three repetitions match exactly. When a period is found, the
//     predicted next pool is the one that followed the current position in
//     the previous cycle — an exact prediction for a truly periodic trace.
//   - Non-cyclic histories (the adversarial generator's downtime and churn
//     traces, a quantized-random preemption storm) degrade to a frequency
//     ranking: the distinct pools seen so far ordered by how often they
//     recur, most-recent first on ties. Recurring levels (a storm always
//     ramping back to its base capacity) dominate that ranking, so the
//     fallback still ranks first the states the trace keeps revisiting.
//
// Forecast(k) returns up to k candidate pools, the periodic prediction
// first when one exists. The forecaster never panics on any input history
// and is a pure function of the observations it was fed: two forecasters
// fed the same snapshots return byte-identical forecasts.

import (
	"sort"

	"repro/internal/cluster"
)

// forecastMaxHistory bounds the observation window. Period inference and
// frequency ranking both run over this suffix, so an unboundedly long
// replay keeps the forecaster O(1) in memory and per-observation cost.
const forecastMaxHistory = 512

// Forecaster predicts the next availability snapshots of an observed
// sequence. The zero value is not usable; call NewForecaster. Not safe for
// concurrent use — callers serialize observations.
//
// Deprecated: the benchmark module's forecaster replay is its last caller;
// it will be deleted once that replay is dropped.
type Forecaster struct {
	// keys is the observed history, most recent last, as canonical pool
	// renderings (cluster.Pool.String — the same zone/type/count cells the
	// planner's warm cache packs into its pool-shape keys).
	keys  []string
	pools map[string]*cluster.Pool
	// count/lastSeen back the frequency ranking: occurrences of each
	// distinct pool in the window, and the observation index of its most
	// recent appearance. seq numbers observations monotonically even as the
	// window slides.
	count    map[string]int
	lastSeen map[string]int
	seq      int
	// dedupReset mirrors Trace.DistinctPools: after a total blackout the
	// next snapshot always records, even if it equals the pre-blackout one
	// (capacity returning is a fresh deployment).
	dedupReset bool
}

// NewForecaster returns an empty forecaster.
func NewForecaster() *Forecaster {
	return &Forecaster{
		pools:    map[string]*cluster.Pool{},
		count:    map[string]int{},
		lastSeen: map[string]int{},
	}
}

// ObservePool records one availability snapshot, with the same coalescing
// Trace.DistinctPools applies to raw events: empty pools are skipped (but
// reset the dedup state), and a snapshot equal to the previous observation
// is skipped. The pool is cloned; callers may keep mutating theirs.
func (f *Forecaster) ObservePool(p *cluster.Pool) {
	if p == nil || p.TotalGPUs() == 0 {
		f.dedupReset = true
		return
	}
	k := p.String()
	if !f.dedupReset && len(f.keys) > 0 && f.keys[len(f.keys)-1] == k {
		return
	}
	f.dedupReset = false
	if len(f.keys) == forecastMaxHistory {
		old := f.keys[0]
		copy(f.keys, f.keys[1:])
		f.keys = f.keys[:len(f.keys)-1]
		if f.count[old]--; f.count[old] == 0 {
			delete(f.count, old)
			delete(f.pools, old)
			delete(f.lastSeen, old)
		}
	}
	f.keys = append(f.keys, k)
	if _, ok := f.pools[k]; !ok {
		f.pools[k] = p.Clone()
	}
	f.count[k]++
	f.lastSeen[k] = f.seq
	f.seq++
}

// Observations reports how many distinct snapshots are in the window.
func (f *Forecaster) Observations() int { return len(f.keys) }

// Period returns the inferred cycle length of the observed sequence, in
// observations — the smallest p whose last min(n, 3p) observations repeat
// with period p — or 0 when no cycle has completed at least twice. The
// two-full-periods requirement is what "after one full observed period" of
// a repeating trace guarantees: the first pass through the cycle is the
// observation, the second confirms it.
func (f *Forecaster) Period() int {
	n := len(f.keys)
	for p := 1; 2*p <= n; p++ {
		w := 3 * p
		if w > n {
			w = n
		}
		ok := true
		for i := n - w + p; i < n; i++ {
			if f.keys[i] != f.keys[i-p] {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	return 0
}

// Forecast returns up to k pools the sequence is most likely to visit
// next: the periodic prediction first when Period finds a cycle, then the
// frequency ranking (occurrences descending, most recently seen first,
// canonical rendering ascending) until k candidates are filled. Returned
// pools are clones; callers own them. An empty history forecasts nothing.
func (f *Forecaster) Forecast(k int) []*cluster.Pool {
	if k <= 0 || len(f.keys) == 0 {
		return nil
	}
	picked := make([]string, 0, k)
	seen := map[string]bool{}
	if p := f.Period(); p > 0 {
		next := f.keys[len(f.keys)-p]
		picked = append(picked, next)
		seen[next] = true
	}
	if len(picked) < k {
		ranked := make([]string, 0, len(f.count))
		for key := range f.count {
			ranked = append(ranked, key)
		}
		sort.Slice(ranked, func(i, j int) bool {
			a, b := ranked[i], ranked[j]
			if f.count[a] != f.count[b] {
				return f.count[a] > f.count[b]
			}
			if f.lastSeen[a] != f.lastSeen[b] {
				return f.lastSeen[a] > f.lastSeen[b]
			}
			return a < b
		})
		for _, key := range ranked {
			if len(picked) == k {
				break
			}
			if !seen[key] {
				seen[key] = true
				picked = append(picked, key)
			}
		}
	}
	out := make([]*cluster.Pool, len(picked))
	for i, key := range picked {
		out[i] = f.pools[key].Clone()
	}
	return out
}
