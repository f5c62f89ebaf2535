package planner

// The per-stage dynamic program of Listing 1: assign resources to pipeline
// stages suffix by suffix, memoizing on the resources the suffix can still
// reach and use (the regions from its scan position on, each count clamped
// to what the remaining stages can take of its type; see packedKey), with
// an exact budget-threading recursion for shallow pipelines and a beam-
// bounded fallback for deep ones. All methods run on a single task — the
// DP itself is sequential; parallelism lives one level up in search.go.
//
// The hot loops are deliberately allocation-lean: the region state is
// mutated in place (applyChoice/undoChoice) instead of cloned per combo,
// stage compositions are enumerated into per-depth scratch buffers reused
// across calls, candidate nodes are compared as value statistics and only
// the per-suffix winner is materialised as a *dpNode, and each stage's
// compositions are built once per DP-degree scan from one evaluator quote
// per (GPU type, TP degree) that fits in memory (tpRange): stage compute
// time and DP sync time. A suffix state that cannot fit at all by a
// counting bound (suffixFits) is cut before its memo key is built, so the
// dead subtrees that used to dominate deep cold scans are never recursed
// into, memoized, or counted.
// None of this changes any comparison: the enumeration order, the
// floating-point expressions, and the tie-breaking are byte-for-byte those
// of the straightforward clone-per-combo implementation, so plans stay
// bit-identical.

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/memory"
)

// replicaGroup is a homogeneous subset of one stage's DP replicas. It is
// deliberately pointer-free (the GPU type is carried as an index into the
// region state's type table and resolved only at plan materialisation):
// group compositions are copied throughout the DP's hottest loops, and
// pointer-free copies take no write barriers and give the GC nothing to
// scan in the group arenas.
type replicaGroup struct {
	typeIdx int
	count   int
	tp      int
	need    int // count*tp, precomputed for the hot availability filter
}

// stageChoice is the resource assignment for one stage: a region (an index
// into the region state's bucket table; the name is resolved at plan
// materialisation) and the composition of its D replicas.
type stageChoice struct {
	region int
	groups []replicaGroup
	// perMB is the per-microbatch fwd+bwd time of the slowest replica.
	perMB float64
	// sync is the estimated gradient all-reduce time for the stage.
	sync float64
	// rateUSD is the USD/second of the stage's GPUs.
	rateUSD float64
}

// chunked is a rewindable bump allocator over fixed-size chunks: take never
// moves what it handed out, rewind makes every chunk reusable. The task's
// next DP degree carves the chunks again, so nothing taken from them may
// outlive the degree.
type chunked[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
}

func (c *chunked[T]) take(n, chunk int) []T {
	for ; c.cur < len(c.chunks); c.cur++ {
		if a := c.chunks[c.cur]; len(a)+n <= cap(a) {
			c.chunks[c.cur] = a[:len(a)+n]
			return a[len(a) : len(a)+n : len(a)+n]
		}
	}
	if chunk < n {
		chunk = n
	}
	c.chunks = append(c.chunks, make([]T, n, chunk))
	return c.chunks[c.cur][:n:n]
}

func (c *chunked[T]) rewind() {
	for i := range c.chunks {
		c.chunks[i] = c.chunks[i][:0]
	}
	c.cur = 0
}

// allocGroups detaches a choice's group composition from the enumeration
// scratch buffer, for choices that outlive one stageCombos generation
// (memoized winners and budget-path nodes), into the task's group arena.
func (t *task) allocGroups(groups []replicaGroup) []replicaGroup {
	out := t.groups.take(len(groups), 4096)
	copy(out, groups)
	return out
}

// newNode hands out one dpNode from the task's node arena, holding whatever
// the previous job left there; every caller assigns it whole.
func (t *task) newNode() *dpNode {
	return &t.nodes.take(1, 512)[0]
}

// dpNode is the memoized solution of the suffix starting at one stage.
type dpNode struct {
	choice    stageChoice
	next      *dpNode
	straggler float64 // max per-microbatch stage time over the suffix
	sumTime   float64 // warm-up/cool-down contribution of the suffix
	maxSync   float64
	rateUSD   float64 // total USD/second over the suffix
}

// metric is the DP's objective: the §4.2.2 iteration-time decomposition.
func (n *dpNode) metric(nb int) float64 {
	return float64(nb)*n.straggler + n.sumTime + n.maxSync
}

// costPerIter approximates the suffix cost under the §4.2.3 assumption that
// the straggler term dominates the iteration.
func (n *dpNode) costPerIter(nb int) float64 {
	return n.rateUSD * float64(nb) * n.straggler
}

// appendChoiceSig appends the signature piece of one choice: the region,
// the groups, and a '|' terminator. The terminator is the only '|' in the
// piece, so two distinct pieces can never be prefixes of one another and
// comparing piece-by-piece equals comparing whole chain signatures.
func appendChoiceSig(b []byte, c stageChoice) []byte {
	b = strconv.AppendInt(b, int64(c.region), 10)
	b = append(b, ';')
	for _, g := range c.groups {
		b = strconv.AppendInt(b, int64(g.typeIdx), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(g.count), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(g.tp), 10)
		b = append(b, ',')
	}
	return append(b, '|')
}

// sigLess reports whether chain a's signature orders before chain b's
// without materialising either string. The pieces are rebuilt into two
// scratch buffers owned by the task and compared one choice at a time,
// which appendChoiceSig's unique terminator makes equivalent to comparing
// the whole chain strings — no allocation per tie-break.
func (t *task) sigLess(a, b *dpNode) bool {
	for a != nil && b != nil {
		t.sigA = appendChoiceSig(t.sigA[:0], a.choice)
		t.sigB = appendChoiceSig(t.sigB[:0], b.choice)
		if c := bytes.Compare(t.sigA, t.sigB); c != 0 {
			return c < 0
		}
		a, b = a.next, b.next
	}
	// A chain that ends first is a proper prefix of the other, and orders
	// before it (suffix chains compared by the DP always have equal length,
	// so this is belt and braces).
	return a == nil && b != nil
}

// nodeStats are the value-typed metrics of a candidate suffix node. The
// combos loop compares candidates through these without allocating a
// dpNode per loser; the arithmetic mirrors combine exactly.
type nodeStats struct {
	straggler float64
	sumTime   float64
	maxSync   float64
	rateUSD   float64
}

func (s nodeStats) metric(nb int) float64 {
	return float64(nb)*s.straggler + s.sumTime + s.maxSync
}

// statsOf computes the metrics combine(choice, child) — a leaf's
// when child is nil — would produce, without building the node.
func statsOf(c stageChoice, child *dpNode) nodeStats {
	if child == nil {
		return nodeStats{straggler: c.perMB, sumTime: c.perMB, maxSync: c.sync, rateUSD: c.rateUSD}
	}
	st := nodeStats{straggler: c.perMB, maxSync: c.sync}
	if child.straggler > st.straggler {
		st.straggler = child.straggler
	}
	st.sumTime = c.perMB + child.sumTime
	if child.maxSync > st.maxSync {
		st.maxSync = child.maxSync
	}
	st.rateUSD = c.rateUSD + child.rateUSD
	return st
}

// nodeOf is the node a winning (choice, child) pair stands for.
func nodeOf(c stageChoice, child *dpNode, st nodeStats) dpNode {
	return dpNode{
		choice: c, next: child,
		straggler: st.straggler, sumTime: st.sumTime,
		maxSync: st.maxSync, rateUSD: st.rateUSD,
	}
}

// winner materialises a memoized state's winner into the task's arenas,
// detaching its groups from the incumbent buffer; it dies with the DP
// degree.
func (t *task) winner(c stageChoice, child *dpNode, st nodeStats) *dpNode {
	c.groups = t.allocGroups(c.groups)
	n := t.newNode()
	*n = nodeOf(c, child, st)
	return n
}

// memoGet probes the scan-local memo, routing inline-packed keys to the
// pointer-free fast map.
func (t *task) memoGet(k dpKey) (*dpNode, bool) {
	if k.spill == "" {
		return t.dpMemo.get(fastKey(k))
	}
	n, ok := t.dpMemoSpill[k]
	return n, ok
}

// memoPut stores one memo entry, routing like memoGet.
func (t *task) memoPut(k dpKey, n *dpNode) {
	if k.spill == "" {
		t.dpMemo.put(fastKey(k), n)
		return
	}
	if t.dpMemoSpill == nil {
		t.dpMemoSpill = map[dpKey]*dpNode{}
	}
	t.dpMemoSpill[k] = n
}

// solveDP assigns resources to stages i..P-1, starting the region scan at
// ri (H5: stages consume regions monotonically, so data-parallel groups
// never straddle a region boundary while the pipeline may). The region
// state is restored to its entry value before every return.
func (t *task) solveDP(rs *regionState, layers []int, i, ri, d, mbs, nb int, budget float64) *dpNode {
	if t.s.expired() {
		return nil
	}
	pp := len(layers)
	if !t.suffixFits(rs, i, ri, d, pp) {
		return nil
	}
	var memoKey dpKey
	memoized := budget <= 0 // unconstrained: memoization is sound
	if memoized {
		memoKey = rs.packedKey(i, ri, &t.caps)
		if n, ok := t.memoGet(memoKey); ok {
			return n
		}
	}
	t.explored++

	var best *dpNode
	if budget > 0 {
		for r := ri; r < len(rs.regions); r++ {
			combos := t.stageCombos(rs, r, i, d)
			if len(combos) > budgetBeamWidth {
				// The budget-constrained recursion cannot reuse the memo
				// (Listing 1 threads the remaining budget through solve_dp),
				// so bound its branching with a beam over the fastest
				// per-stage choices; the paper reports a 4x overhead rather
				// than an exponential one, implying similar bounding.
				sort.Slice(combos, func(a, b int) bool { return combos[a].perMB < combos[b].perMB })
				combos = combos[:budgetBeamWidth]
			}
			for _, choice := range combos {
				if t.s.expired() {
					break
				}
				if n := t.solveWithBudget(rs, layers, i, r, d, mbs, nb, budget, choice); n != nil {
					if best == nil || t.nodeBetter(n, best, nb) {
						best = n
					}
				}
			}
		}
		return best
	}

	// Unconstrained path: compare candidates as value stats, materialise
	// only the winner.
	var (
		bestStats  nodeStats
		bestChoice stageChoice
		bestChild  *dpNode
		have       bool
	)
	last := i == pp-1
	for r := ri; r < len(rs.regions); r++ {
		combos := t.stageCombos(rs, r, i, d)
		for _, choice := range combos {
			if t.s.expired() {
				break
			}
			if have && t.domOn && t.dominated(choice, bestStats, i, pp, d, nb) {
				continue
			}
			applyChoice(rs, choice)
			var child *dpNode
			ok := true
			if !last {
				child = t.solveDP(rs, layers, i+1, r, d, mbs, nb, 0)
				ok = child != nil
			}
			undoChoice(rs, choice)
			if !ok {
				continue
			}
			st := statsOf(choice, child)
			if !have || t.statsBetter(st, choice, child, bestStats, bestChoice, bestChild, nb) {
				// The incumbent outlives this stageCombos generation, so
				// its groups leave the shared scratch buffer — into the
				// per-stage incumbent buffer, not the arena: incumbents
				// are overwritten on every improvement, and only the one
				// that survives to materialisation is worth detaching.
				t.bestGBuf[i] = append(t.bestGBuf[i][:0], choice.groups...)
				choice.groups = t.bestGBuf[i]
				bestStats, bestChoice, bestChild, have = st, choice, child, true
			}
		}
	}
	if have {
		best = t.winner(bestChoice, bestChild, bestStats)
	}
	if memoized {
		t.memoPut(memoKey, best)
	}
	return best
}

// suffixFits reports whether the regions from ri on can still hold stages
// i..pp-1 by counting alone: region r fits at most
// ⌊Σ_t ⌊count(r, t) / minLo_i(t)⌋ / d⌋ stages, because every stage places
// exactly d replicas in one region r ≥ ri (H5's forward scan) and
// buildCombos never offers type t a TP below its span's floor. A state that
// fails the bound has no completion, so solveDP would return nil for it on
// either path; cutting it first changes no answer and no dominance decision
// (those compare completed siblings only), only what Explored counts.
func (t *task) suffixFits(rs *regionState, i, ri, d, pp int) bool {
	need := pp - i
	minLo := t.minLo[i*len(rs.types) : (i+1)*len(rs.types)]
	for r := ri; r < len(rs.regions); r++ {
		reps := 0
		for ti, lo := range minLo {
			if lo > 0 {
				reps += rs.count(r, ti) / lo
			}
		}
		if need -= reps / d; need <= 0 {
			return true
		}
	}
	return false
}

// solveWithBudget implements the straggler-approximation loop of Listing 1
// lines 17-32: assume this stage is the straggler, allocate the remaining
// budget to the suffix, and re-adjust when the suffix turns out to contain
// a slower stage. The region state is restored before returning.
func (t *task) solveWithBudget(rs *regionState, layers []int, i, r, d, mbs, nb int, budget float64, choice stageChoice) *dpNode {
	pp := len(layers)
	// Nodes built here outlive the enumeration scratch.
	choice.groups = t.allocGroups(choice.groups)
	applyChoice(rs, choice)
	defer undoChoice(rs, choice)
	if i == pp-1 {
		n := t.combine(choice, nil)
		if n.costPerIter(nb) > budget {
			return nil
		}
		return n
	}
	assumed := choice.perMB
	for iter := 0; iter < 4; iter++ {
		costI := choice.rateUSD * float64(nb) * assumed
		rem := budget - costI
		if rem <= 0 {
			return nil
		}
		child := t.solveDP(rs, layers, i+1, r, d, mbs, nb, rem)
		if child == nil {
			return nil
		}
		node := t.combine(choice, child)
		if node.costPerIter(nb) <= budget {
			return node
		}
		if child.straggler <= assumed {
			// Assumption held but the combined cost still busts the
			// budget: infeasible with this stage choice.
			return nil
		}
		assumed = child.straggler
	}
	return nil
}

func (t *task) combine(c stageChoice, child *dpNode) *dpNode {
	n := t.newNode()
	*n = nodeOf(c, child, statsOf(c, child))
	return n
}

func applyChoice(rs *regionState, c stageChoice) {
	for _, g := range c.groups {
		rs.addCount(c.region, g.typeIdx, -g.need)
	}
}

func undoChoice(rs *regionState, c stageChoice) {
	for _, g := range c.groups {
		rs.addCount(c.region, g.typeIdx, g.need)
	}
}

// stageCombos returns the feasible resource compositions for one stage in
// one region under the current availability. The scored composition list
// is availability- and region-independent — perMB, sync, and rateUSD are
// functions of the stage shape, never of the remaining counts or of where
// the stage runs — so it is enumerated and scored once per stage per
// DP-degree scan (buildCombos) and each call only filters it against the
// region's live availability row, stamping the region on the copies that
// pass. Filtering a superset enumerated in the same nested order yields
// exactly the sequence the unscanned enumeration produced, so every
// downstream comparison sees the identical candidate stream.
//
// The returned slice lives in a per-depth scratch buffer owned by the
// task: it is valid until the next stageCombos call at the same stage
// index. The group compositions inside it live in the per-scan cache and
// stay valid for the whole scan; callers clone what outlives the scan.
func (t *task) stageCombos(rs *regionState, region, stage, d int) []stageChoice {
	// Growing keeps the cells' buffers: an earlier, shallower job's lists
	// are stale (comboOK is false until rebuilt) but their capacity is not.
	if grow := len(t.partition) - len(t.comboOK); grow > 0 {
		t.comboCache = append(t.comboCache, make([][]stageChoice, grow)...)
		t.comboGroups = append(t.comboGroups, make([][]replicaGroup, grow)...)
		t.comboOK = append(t.comboOK, make([]bool, grow)...)
	}
	if !t.comboOK[stage] {
		t.buildCombos(stage, d)
		t.comboOK[stage] = true
	}
	// Hoist the region's availability row: the state is not mutated while
	// one filter pass runs, so the per-combo feasibility checks below read
	// a flat row instead of re-unpacking lanes per group. Groups within
	// one composition use distinct types, so a per-group check equals the
	// summed check.
	avail := t.availBuf[:0]
	for ti := range rs.types {
		avail = append(avail, rs.count(region, ti))
	}
	t.availBuf = avail
	cache := t.comboCache[stage]
	out := t.combosBuf[stage][:0]
	for ci := range cache {
		c := &cache[ci]
		ok := true
		for _, g := range c.groups {
			if avail[g.typeIdx] < g.need {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, *c)
			out[len(out)-1].region = region
		}
	}
	t.combosBuf[stage] = out
	return out
}

// tpQuote is the evaluator's quote for one (GPU type, TP degree) option of
// a stage: the per-microbatch time of a replica, and the DP sync time of a
// composition whose smallest TP degree this is.
type tpQuote struct {
	ti, tp      int
	perMB, sync float64
}

// typeOption indexes one GPU type's quotes inside the shared quote buffer.
type typeOption struct{ lo, hi int }

// buildCombos enumerates and scores every composition for one stage,
// ignoring region and availability: D replicas split across at most two
// GPU types (generate_combos in Listing 1), with TP per type fixed by H2's
// minimum (plus one doubling, the "scaling heuristic"). Without H2 every
// power-of-two TP from that minimum up to the node size is tried. Every
// degree in the scan's span fits in memory (see tpRange), so each (type,
// TP) is quoted once and dropped only when the evaluator has no timing for
// it; every composition built from the survivors is feasible up to
// availability, which is the caller's filter.
func (t *task) buildCombos(stage, d int) {
	types := len(t.rs.types)
	opts := t.optsBuf[:0]
	quotes := t.quoteBuf[:0]
	for ti := range t.rs.types {
		sp := t.spans[stage*types+ti]
		if sp.lo == 0 {
			continue // cannot fit this stage on this type at all
		}
		start := len(quotes)
		for tp := sp.lo; tp <= sp.hi; tp *= 2 {
			tm, err := t.stageTime(stage, ti, tp)
			if err != nil {
				continue
			}
			q := tpQuote{ti: ti, tp: tp, perMB: tm}
			if d > 1 {
				// Within-region ring (H5/H6), scored at the inter-zone fit.
				bytes := int64(t.partition[stage]) * t.pl.Cfg.GradBytesPerLayer(tp)
				q.sync = t.pl.Sim.DPSyncTime(bytes, d)
			}
			quotes = append(quotes, q)
		}
		if len(quotes) > start {
			opts = append(opts, typeOption{start, len(quotes)})
		}
	}
	t.optsBuf, t.quoteBuf = opts, quotes

	out := t.comboCache[stage][:0]
	arena := t.comboGroups[stage][:0]
	// Single-type compositions.
	for _, o := range opts {
		for qi := o.lo; qi < o.hi; qi++ {
			q := &quotes[qi]
			start := len(arena)
			arena = append(arena, replicaGroup{typeIdx: q.ti, count: d, tp: q.tp, need: d * q.tp})
			c := stageChoice{groups: arena[start:len(arena):len(arena)], sync: q.sync}
			t.score(&c, q, d)
			out = append(out, c)
		}
	}
	// Two-type mixes (the heterogeneous per-stage replicas of §4.4). The
	// split points are sampled at quartiles plus the extremes; exhaustive
	// splits add little beyond these and blow up the search.
	var ks [5]int
	nks := 0
	for _, k := range [5]int{1, d / 4, d / 2, 3 * d / 4, d - 1} {
		if k < 1 || k >= d {
			continue
		}
		dup := false
		for _, seen := range ks[:nks] {
			if seen == k {
				dup = true
				break
			}
		}
		if !dup {
			ks[nks] = k
			nks++
		}
	}
	for ai := 0; ai < len(opts); ai++ {
		for bi := ai + 1; bi < len(opts); bi++ {
			for ia := opts[ai].lo; ia < opts[ai].hi; ia++ {
				for ib := opts[bi].lo; ib < opts[bi].hi; ib++ {
					qa, qb := &quotes[ia], &quotes[ib]
					// The ring syncs at the composition's smallest TP.
					sync := qa.sync
					if qb.tp < qa.tp {
						sync = qb.sync
					}
					for _, k := range ks[:nks] {
						start := len(arena)
						arena = append(arena,
							replicaGroup{typeIdx: qa.ti, count: k, tp: qa.tp, need: k * qa.tp},
							replicaGroup{typeIdx: qb.ti, count: d - k, tp: qb.tp, need: (d - k) * qb.tp})
						c := stageChoice{groups: arena[start:len(arena):len(arena)], sync: sync}
						t.score(&c, qa, k)
						t.score(&c, qb, d-k)
						out = append(out, c)
					}
				}
			}
		}
	}
	t.comboCache[stage], t.comboGroups[stage] = out, arena
}

// score folds one group of count replicas quoted q into a composition's
// per-stage metrics: perMB is the slowest replica's time, rateUSD sums the
// groups' USD/second in group order.
func (t *task) score(c *stageChoice, q *tpQuote, count int) {
	if q.perMB > c.perMB {
		c.perMB = q.perMB
	}
	c.rateUSD += t.s.ratePerSec[q.ti] * float64(count*q.tp)
}

// tpSpan is the range of TP degrees buildCombos offers one GPU type at one
// stage: every power-of-two multiple of lo up to hi; lo is 0 when no degree
// fits.
type tpSpan struct{ lo, hi int }

// tpRange returns the span of TP degrees buildCombos offers type ti at a
// stage with nb microbatches per pipeline. lo is memory.MinTP, the smallest
// degree whose worker fits, so the span holds only degrees that fit: with
// H2, lo plus one doubling when the doubled group still fits a node;
// without H2, every power of two from lo up to the node size. Both are
// (0, 0) when no degree fits.
func (t *task) tpRange(ti, stage, nb int) tpSpan {
	lo := memory.MinTP(t.pl.Cfg, t.rs.types[ti], t.partition[stage], stage, len(t.partition), t.mbs, nb)
	node := t.s.nodeCap[ti]
	switch {
	case lo == 0:
		return tpSpan{}
	case !t.pl.Opts.Heuristics.H2MinTP:
		return tpSpan{lo, node}
	case lo*2 <= node:
		return tpSpan{lo, lo * 2}
	}
	return tpSpan{lo, lo}
}

// stageTime quotes StageComputeTimeWith for one stage of the task's layer
// partition.
func (t *task) stageTime(stage, ti, tp int) (float64, error) {
	last := stage == len(t.partition)-1
	return t.pl.Sim.StageComputeTimeWith(t.s.rs.types[ti], tp, t.mbs, t.partition[stage], last, false)
}

// --- plan materialisation --------------------------------------------------

// planBuf backs one plan under evaluation: its stages and, carved from one
// array, their replicas.
type planBuf struct {
	stages   []core.StagePlan
	replicas []core.StageReplica
}

// buildPlan converts a DP solution chain into a concrete core.Plan, mapping
// the consolidated region back onto real zones through the search's zone
// table: each replica (tp GPUs of one type, one zone per H1) lands in the
// zone of its region bucket with the most remaining capacity. The plan
// lives in buf until the next buildPlan into it (see detachPlan).
func (t *task) buildPlan(node *dpNode, layers []int, mbs int, buf *planBuf) (core.Plan, bool) {
	s := t.s
	pp, types := len(layers), len(s.rs.types)
	// Remaining availability per real zone for zone assignment.
	t.zoneLeft = append(t.zoneLeft[:0], s.zoneAvail...)
	d := 0
	for _, g := range node.choice.groups {
		d += g.count
	}
	reps := resized(buf.replicas, pp*d)[:0]
	stages := buf.stages[:0]
	first := 0
	cur := node
	for i := 0; i < pp; i++ {
		if cur == nil {
			return core.Plan{}, false
		}
		ch := cur.choice
		from := len(reps)
		for _, g := range ch.groups {
			gpu := s.rs.types[g.typeIdx]
			for r := 0; r < g.count; r++ {
				best, bestN := -1, -1
				for _, zi := range s.bucketZones[ch.region] {
					if n := t.zoneLeft[zi*types+g.typeIdx]; n >= g.tp && n > bestN {
						best, bestN = zi, n
					}
				}
				if best < 0 {
					return core.Plan{}, false
				}
				t.zoneLeft[best*types+g.typeIdx] -= g.tp
				reps = append(reps, core.StageReplica{GPU: gpu, TP: g.tp, Zone: s.zones[best]})
			}
		}
		stages = append(stages, core.StagePlan{FirstLayer: first, NumLayers: layers[i], Replicas: reps[from:len(reps):len(reps)]})
		first += layers[i]
		cur = cur.next
	}
	buf.stages, buf.replicas = stages, reps
	return core.Plan{MicroBatchSize: mbs, Stages: stages}, true
}

// detachPlan returns a copy of a scratch-backed plan in storage of its own.
func detachPlan(p core.Plan) core.Plan {
	p.Stages = slices.Clone(p.Stages)
	for i := range p.Stages {
		p.Stages[i].Replicas = slices.Clone(p.Stages[i].Replicas)
	}
	return p
}
