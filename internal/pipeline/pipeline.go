// Package pipeline implements the 1F1B (one-forward-one-backward) pipeline
// schedule the paper's simulator assumes (§4.3): explicit per-stage op
// sequences for execution engines, an analytical iteration-time formula
// for the simulator (warm-up, straggler-dominated steady phase, cool-down),
// and an exact makespan evaluator over the op dependency graph, which the
// ground-truth engine uses.
package pipeline

import (
	"fmt"
	"sync"
)

// OpKind distinguishes forward from backward microbatch passes.
type OpKind int

const (
	// Fwd is a forward pass of one microbatch through one stage.
	Fwd OpKind = iota
	// Bwd is the corresponding backward pass.
	Bwd
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if k == Fwd {
		return "F"
	}
	return "B"
}

// Op is one unit of work in a stage's schedule.
type Op struct {
	Kind OpKind
	MB   int // microbatch index, 0-based
}

// OneFOneB builds the 1F1B schedule for a pipeline of depth p processing nb
// microbatches: stage i runs min(p-1-i, nb) warm-up forwards, then
// alternates forward/backward, then drains remaining backwards.
func OneFOneB(p, nb int) ([][]Op, error) {
	if p <= 0 || nb <= 0 {
		return nil, fmt.Errorf("pipeline: invalid schedule p=%d nb=%d", p, nb)
	}
	sched := make([][]Op, p)
	for i := 0; i < p; i++ {
		warmup := p - 1 - i
		if warmup > nb {
			warmup = nb
		}
		ops := make([]Op, 0, 2*nb)
		for m := 0; m < warmup; m++ {
			ops = append(ops, Op{Fwd, m})
		}
		steady := nb - warmup
		for j := 0; j < steady; j++ {
			ops = append(ops, Op{Fwd, warmup + j})
			ops = append(ops, Op{Bwd, j})
		}
		for m := steady; m < nb; m++ {
			ops = append(ops, Op{Bwd, m})
		}
		sched[i] = ops
	}
	return sched, nil
}

// --- schedule cache ---------------------------------------------------------

// schedCacheMax bounds the shared schedule cache; (p, nb) pairs beyond it
// are built fresh (the working set of any search is far smaller).
const schedCacheMax = 4096

var (
	schedMu    sync.RWMutex
	schedCache = map[[2]int][][]Op{}
)

// Cached1F1B returns the 1F1B schedule for (p, nb) from a process-wide
// cache. Schedules are immutable after construction, so sharing them across
// goroutines and simulators is safe; the simulator's hot loop evaluates the
// same handful of shapes millions of times per search.
func Cached1F1B(p, nb int) ([][]Op, error) {
	k := [2]int{p, nb}
	schedMu.RLock()
	s, ok := schedCache[k]
	schedMu.RUnlock()
	if ok {
		return s, nil
	}
	s, err := OneFOneB(p, nb)
	if err != nil {
		return nil, err
	}
	schedMu.Lock()
	if len(schedCache) < schedCacheMax {
		schedCache[k] = s
	}
	schedMu.Unlock()
	return s, nil
}

// AnalyticTime is the closed-form 1F1B iteration-time estimate used by the
// Sailor simulator: the steady phase is dominated by the straggler stage,
// warm-up and cool-down contribute one forward+backward per stage, and each
// stage boundary pays activation and gradient transfers once per direction.
//
//	T = (nb-1) * max_i(f_i + b_i + 2*c_i-overlap) + Σ_i (f_i + b_i) + 2 Σ c_i
//
// where c_i is the per-microbatch transfer between stages i and i+1 and
// overlap is the fraction hidden behind compute. fwd, bwd have length p;
// comm has length p-1.
func AnalyticTime(fwd, bwd, comm []float64, nb int, overlap float64) (float64, error) {
	p := len(fwd)
	if p == 0 || len(bwd) != p || len(comm) != p-1 || nb <= 0 {
		return 0, fmt.Errorf("pipeline: inconsistent inputs p=%d bwd=%d comm=%d nb=%d",
			p, len(bwd), len(comm), nb)
	}
	if overlap < 0 || overlap > 1 {
		return 0, fmt.Errorf("pipeline: overlap %v outside [0,1]", overlap)
	}
	exposed := 1 - overlap
	straggler := 0.0
	for i := 0; i < p; i++ {
		t := fwd[i] + bwd[i]
		// Per-microbatch steady-state exposure of the adjacent links.
		if i < p-1 {
			t += 2 * comm[i] * exposed
		}
		if t > straggler {
			straggler = t
		}
	}
	total := float64(nb-1) * straggler
	for i := 0; i < p; i++ {
		total += fwd[i] + bwd[i]
	}
	for _, c := range comm {
		total += 2 * c
	}
	return total, nil
}

// Makespan evaluates the exact completion time of a 1F1B schedule over its
// dependency DAG: an op waits for its predecessor on the same stage, and for
// its cross-stage data dependency (forward activations flow down the
// pipeline, gradients flow back up), each paying the boundary transfer.
// Cost callbacks may vary per (stage, microbatch), which is how the
// ground-truth engine injects jitter and heterogeneity.
func Makespan(sched [][]Op,
	fwd func(stage, mb int) float64,
	bwd func(stage, mb int) float64,
	comm func(boundary int) float64) (float64, error) {

	p := len(sched)
	if p == 0 {
		return 0, fmt.Errorf("pipeline: empty schedule")
	}
	finish := make(map[opKey]float64, p*len(sched[0]))
	next := make([]int, p)      // index of next unexecuted op per stage
	avail := make([]float64, p) // stage busy-until time

	remaining := 0
	for _, ops := range sched {
		remaining += len(ops)
	}
	end := 0.0
	for remaining > 0 {
		progressed := false
		for s := 0; s < p; s++ {
			for next[s] < len(sched[s]) {
				op := sched[s][next[s]]
				depReady, ok := depTime(finish, s, op, p, comm)
				if !ok {
					break // dependency not finished yet; try other stages
				}
				start := avail[s]
				if depReady > start {
					start = depReady
				}
				var dur float64
				if op.Kind == Fwd {
					dur = fwd(s, op.MB)
				} else {
					dur = bwd(s, op.MB)
				}
				f := start + dur
				finish[opKey{s, op}] = f
				avail[s] = f
				if f > end {
					end = f
				}
				next[s]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return 0, fmt.Errorf("pipeline: schedule deadlocked with %d ops left", remaining)
		}
	}
	return end, nil
}

// opKey identifies one executed op for dependency lookups.
type opKey struct {
	stage int
	op    Op
}

// Scratch is reusable working storage for MakespanStageCosts. The zero
// value is ready to use; one Scratch serves any schedule shape, growing to
// the largest seen. Not safe for concurrent use — callers pool them.
type Scratch struct {
	finish []float64
	next   []int
	avail  []float64
}

// grow sizes the scratch for p stages with stride slots per stage and
// resets it.
func (sc *Scratch) grow(p, stride int) {
	n := p * stride
	if cap(sc.finish) < n {
		sc.finish = make([]float64, n)
	}
	sc.finish = sc.finish[:n]
	for i := range sc.finish {
		sc.finish[i] = -1
	}
	if cap(sc.next) < p {
		sc.next = make([]int, p)
		sc.avail = make([]float64, p)
	}
	sc.next = sc.next[:p]
	sc.avail = sc.avail[:p]
	for i := 0; i < p; i++ {
		sc.next[i] = 0
		sc.avail[i] = 0
	}
}

// MakespanStageCosts evaluates the same dependency DAG as Makespan for the
// common case of stage-constant costs (fwd/bwd per stage, comm per
// boundary), executing ops in the identical order so the floating-point
// result is bit-for-bit equal — but with flat index arithmetic in caller
// scratch instead of a map and closures, which removes the simulator's
// dominant allocation source.
func MakespanStageCosts(sched [][]Op, fwd, bwd, comm []float64, sc *Scratch) (float64, error) {
	p := len(sched)
	if p == 0 {
		return 0, fmt.Errorf("pipeline: empty schedule")
	}
	maxMB := 0
	remaining := 0
	for _, ops := range sched {
		remaining += len(ops)
		for _, op := range ops {
			if op.MB > maxMB {
				maxMB = op.MB
			}
		}
	}
	stride := 2 * (maxMB + 1)
	sc.grow(p, stride)
	slot := func(stage int, op Op) int { return stage*stride + 2*op.MB + int(op.Kind) }

	end := 0.0
	for remaining > 0 {
		progressed := false
		for s := 0; s < p; s++ {
			for sc.next[s] < len(sched[s]) {
				op := sched[s][sc.next[s]]
				// Cross-stage dependency, mirroring depTime.
				depReady := 0.0
				if op.Kind == Fwd {
					if s > 0 {
						f := sc.finish[slot(s-1, Op{Fwd, op.MB})]
						if f < 0 {
							break
						}
						depReady = f + comm[s-1]
					}
				} else if s < p-1 {
					f := sc.finish[slot(s+1, Op{Bwd, op.MB})]
					if f < 0 {
						break
					}
					depReady = f + comm[s]
				}
				start := sc.avail[s]
				if depReady > start {
					start = depReady
				}
				var dur float64
				if op.Kind == Fwd {
					dur = fwd[s]
				} else {
					dur = bwd[s]
				}
				f := start + dur
				sc.finish[slot(s, op)] = f
				sc.avail[s] = f
				if f > end {
					end = f
				}
				sc.next[s]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return 0, fmt.Errorf("pipeline: schedule deadlocked with %d ops left", remaining)
		}
	}
	return end, nil
}

// depTime returns when op's cross-stage dependency data arrives, or ok=false
// if the dependency has not executed yet.
func depTime(finish map[opKey]float64, stage int, op Op, p int, comm func(int) float64) (float64, bool) {
	if op.Kind == Fwd {
		if stage == 0 {
			return 0, true
		}
		f, ok := finish[opKey{stage - 1, Op{Fwd, op.MB}}]
		if !ok {
			return 0, false
		}
		return f + comm(stage-1), true
	}
	if stage == p-1 {
		// Backward at the last stage only needs its own forward, which
		// same-stage ordering already guarantees.
		return 0, true
	}
	f, ok := finish[opKey{stage + 1, Op{Bwd, op.MB}}]
	if !ok {
		return 0, false
	}
	return f + comm(stage), true
}
