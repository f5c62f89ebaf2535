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
// the per-suffix winner is materialised as a *dpNode, and every repeated
// evaluator query (stage compute time, memory fit, DP sync time) resolves
// through a per-task cache keyed by packed structs. None of this changes
// any comparison: the enumeration order, the floating-point expressions,
// and the tie-breaking are byte-for-byte those of the straightforward
// clone-per-combo implementation, so plans stay bit-identical.

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/hardware"
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
// outlive the degree (the ownership rule is stated in warm.go).
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

// winner materialises a memoized state's winner, detaching its groups from
// the incumbent buffer. A warm task stores every such node, so it is born
// cache-owned (as its child was, or the cache served it); a cold task's
// nodes die with the DP degree and come from the arenas.
func (t *task) winner(c stageChoice, child *dpNode, st nodeStats) *dpNode {
	if t.s.warm != nil {
		return ownedNode(nodeOf(c, child, st))
	}
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
	var memoKey dpKey
	memoized := budget <= 0 // unconstrained: memoization is sound
	if memoized {
		memoKey = rs.packedKey(i, ri, &t.caps)
		if n, ok := t.memoGet(memoKey); ok {
			return n
		}
		// Warm start: consult the DP memos persisted by earlier replans. A
		// hit short-circuits the whole subtree (it neither counts as
		// explored nor recurses), which is where Replan's speedup on churn
		// traces comes from. Hits are handed back to store so its over-cap
		// eviction keeps the live working set rather than retaining only
		// the latest search's misses.
		if t.s.warm != nil {
			full := t.warmKey(memoKey)
			if n, ok := t.s.warm.dp[full]; ok {
				t.warmHits++
				t.memoPut(memoKey, n)
				t.pend = append(t.pend, warmEntry{full, n})
				return n
			}
		}
	}
	t.explored++

	var best *dpNode
	if budget > 0 {
		for r := ri; r < len(rs.regions); r++ {
			combos := t.stageCombos(rs, r, layers[i], i, pp, d, mbs, nb)
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
		combos := t.stageCombos(rs, r, layers[i], i, pp, d, mbs, nb)
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
		if t.s.warm != nil && !t.s.expired() {
			// Persist only nodes from uncancelled exploration: a cut-off
			// subtree may have skipped choices, and caching its partial
			// best would poison later replans. nil results (infeasible
			// suffixes) are cached too — knowing a region state cannot
			// host the remaining stages is as reusable as a solution.
			t.pend = append(t.pend, warmEntry{t.warmKey(memoKey), best})
		}
	}
	return best
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
// is availability-independent — perMB, sync, and rateUSD are functions of
// the stage shape, never of the remaining counts — so it is enumerated and
// scored once per (stage, region) per DP-degree scan (buildCombos) and
// each call only filters it against the live availability row. Filtering a
// superset enumerated in the same nested order yields exactly the
// sequence the unscanned enumeration produced, so every downstream
// comparison sees the identical candidate stream.
//
// The returned slice lives in a per-depth scratch buffer owned by the
// task: it is valid until the next stageCombos call at the same stage
// index. The group compositions inside it live in the per-scan cache and
// stay valid for the whole scan; callers clone what outlives the scan.
func (t *task) stageCombos(rs *regionState, region, layers, stage, pp, d, mbs, nb int) []stageChoice {
	// The cell arrays are sized here, not in init: a warm task whose scans
	// are served from the warm cache never enumerates a combo, so it never
	// pays for them.
	// Growing keeps the cells' buffers: an earlier, shallower job's lists
	// are stale (comboOK is false until rebuilt) but their capacity is not.
	if grow := pp*len(rs.regions) - len(t.comboOK); grow > 0 {
		t.comboCache = append(t.comboCache, make([][]stageChoice, grow)...)
		t.comboGroups = append(t.comboGroups, make([][]replicaGroup, grow)...)
		t.comboOK = append(t.comboOK, make([]bool, grow)...)
	}
	idx := stage*len(rs.regions) + region
	if !t.comboOK[idx] {
		t.buildCombos(rs, region, layers, stage, pp, d, mbs, nb, idx)
		t.comboOK[idx] = true
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
	cache := t.comboCache[idx]
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
		}
	}
	t.combosBuf[stage] = out
	return out
}

// buildCombos enumerates and scores every composition for one stage in one
// region, ignoring availability: D replicas split across at most two GPU
// types (generate_combos in Listing 1), with TP per type fixed by H2's
// minimum (plus one doubling, the "scaling heuristic"). Without H2 every
// power-of-two TP is tried. Compositions the evaluator rejects (no timing,
// OOM) are dropped here; availability is the caller's filter.
func (t *task) buildCombos(rs *regionState, region, layers, stage, pp, d, mbs, nb, idx int) {
	opts := t.optsBuf[:0]
	tps := t.tpsBuf[:0]
	for ti, g := range rs.types {
		lo, hi := t.tpRange(g, ti, layers, stage, pp, mbs, nb)
		if lo == 0 {
			continue // cannot fit this stage on this type at all
		}
		start := len(tps)
		for tp := lo; tp <= hi; tp *= 2 {
			tps = append(tps, tp)
		}
		opts = append(opts, typeOption{ti: ti, lo: start, hi: len(tps)})
	}
	t.optsBuf, t.tpsBuf = opts, tps

	out := t.comboCache[idx][:0]
	arena := t.comboGroups[idx][:0]
	emit := func(groups []replicaGroup) {
		c, ok := t.scoreChoice(rs, region, groups, layers, stage, pp, mbs, d)
		if ok {
			out = append(out, c)
		}
	}
	// Single-type compositions.
	for _, o := range opts {
		for _, tp := range tps[o.lo:o.hi] {
			start := len(arena)
			arena = append(arena, replicaGroup{typeIdx: o.ti, count: d, tp: tp, need: d * tp})
			emit(arena[start:len(arena):len(arena)])
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
			for _, tpa := range tps[opts[ai].lo:opts[ai].hi] {
				for _, tpb := range tps[opts[bi].lo:opts[bi].hi] {
					for _, k := range ks[:nks] {
						start := len(arena)
						arena = append(arena,
							replicaGroup{typeIdx: opts[ai].ti, count: k, tp: tpa, need: k * tpa},
							replicaGroup{typeIdx: opts[bi].ti, count: d - k, tp: tpb, need: (d - k) * tpb})
						emit(arena[start:len(arena):len(arena)])
					}
				}
			}
		}
	}
	t.comboCache[idx], t.comboGroups[idx] = out, arena
}

// tpRange returns the smallest and largest TP degree buildCombos offers type
// ti at a stage; it offers every power-of-two multiple of lo up to hi. With
// H2 that is the minimum viable degree plus one doubling when the doubled
// group still fits a node, (0, 0) when no degree fits; without H2, every
// power of two up to the node size.
func (t *task) tpRange(g core.GPUType, ti, layers, stage, pp, mbs, nb int) (lo, hi int) {
	node := t.s.nodeCap[ti]
	if !t.pl.Opts.Heuristics.H2MinTP {
		return 1, node
	}
	lo = t.minTP(g, ti, layers, stage, pp, mbs, nb)
	if lo > 0 && lo*2 <= node {
		return lo, lo * 2
	}
	return lo, lo
}

// typeOption indexes one GPU type's candidate TP degrees inside the shared
// tps scratch buffer.
type typeOption struct {
	ti     int
	lo, hi int
}

// scoreChoice computes the per-stage DP metrics for a composition, serving
// every repeated evaluator query from the per-task caches.
func (t *task) scoreChoice(rs *regionState, region int, groups []replicaGroup, layers, stage, pp, mbs, d int) (stageChoice, bool) {
	c := stageChoice{region: region, groups: groups}
	minTP := 0
	for _, g := range groups {
		tm, ok := t.stageTimeAt(stage, g.typeIdx, g.tp)
		if !ok {
			return c, false
		}
		if tm > c.perMB {
			c.perMB = tm
		}
		c.rateUSD += t.s.ratePerSec[g.typeIdx] * float64(g.count*g.tp)
		if minTP == 0 || g.tp < minTP {
			minTP = g.tp
		}
		// Without H2, reject compositions whose workers OOM outright
		// (Sailor never emits OOM plans either way; this keeps the
		// no-heuristics ablation semantically identical, just slower).
		if !t.fitsMemoryAt(stage, g.typeIdx, g.tp) {
			return c, false
		}
	}
	if d > 1 {
		// Within-region ring (H5/H6), scored at the inter-zone fit.
		c.sync = t.dpSyncTimeAt(stage, minTP, d)
	}
	return c, true
}

// taskTPSlots bounds the tensor-parallel degrees the dense per-task caches
// index: powers of two up to 16, beyond every node size in the catalogue.
const taskTPSlots = 5

// tpSlotOf maps a power-of-two TP degree to its cache slot, or -1 (which
// routes the query to the uncached evaluator call — it cannot occur with
// the current hardware catalogue, where TP degrees are node-bounded powers
// of two).
func tpSlotOf(tp int) int {
	if tp <= 0 || tp&(tp-1) != 0 || tp > 1<<(taskTPSlots-1) {
		return -1
	}
	s := 0
	for 1<<s != tp {
		s++
	}
	return s
}

// cacheStates for the dense lazily-filled per-task tables.
const (
	cacheEmpty uint8 = iota
	cacheOK
	cacheBad
)

// denseIdx flattens (stage, typeIdx, slot).
func (t *task) denseIdx(stage, ti, slot int) int {
	return (stage*len(t.s.rs.types)+ti)*taskTPSlots + slot
}

// stageTimeAt resolves StageComputeTimeWith for one stage of the task's
// layer partition through a dense per-task table — the per-combo map
// lookups this replaces were the hottest instructions of the heterogeneous
// search.
func (t *task) stageTimeAt(stage, ti, tp int) (float64, bool) {
	slot := tpSlotOf(tp)
	if slot < 0 {
		tm, err := t.stageTimeRaw(stage, ti, tp)
		return tm, err == nil
	}
	i := t.denseIdx(stage, ti, slot)
	if st := t.stageTok[i]; st != cacheEmpty {
		return t.stageT[i], st == cacheOK
	}
	tm, err := t.stageTimeRaw(stage, ti, tp)
	if err != nil {
		t.stageTok[i] = cacheBad
		return 0, false
	}
	t.stageT[i], t.stageTok[i] = tm, cacheOK
	return tm, true
}

func (t *task) stageTimeRaw(stage, ti, tp int) (float64, error) {
	last := stage == len(t.partition)-1
	return t.pl.Sim.StageComputeTimeWith(t.s.rs.types[ti], tp, t.mbs, t.partition[stage], last, false)
}

// fitsMemoryAt resolves the per-worker memory check through the dense
// per-task table.
func (t *task) fitsMemoryAt(stage, ti, tp int) bool {
	slot := tpSlotOf(tp)
	if slot < 0 {
		return t.fitsMemoryRaw(stage, ti, tp)
	}
	i := t.denseIdx(stage, ti, slot)
	if st := t.fitTok[i]; st != cacheEmpty {
		return st == cacheOK
	}
	ok := t.fitsMemoryRaw(stage, ti, tp)
	if ok {
		t.fitTok[i] = cacheOK
	} else {
		t.fitTok[i] = cacheBad
	}
	return ok
}

func (t *task) fitsMemoryRaw(stage, ti, tp int) bool {
	pp := len(t.partition)
	w := memory.WorkerShape{
		Layers: t.partition[stage], StageIdx: stage, PP: pp, TP: tp,
		MicroBS: t.mbs, NumMicro: pp, FirstStg: stage == 0, LastStg: stage == pp-1,
	}
	spec, err := hardware.Lookup(t.s.rs.types[ti])
	if err != nil {
		return false
	}
	return memory.Fits(memory.WorkerFootprint(t.pl.Cfg, w).Total(), spec.MemoryBytes)
}

// dpSyncTimeAt resolves DPSyncTime through the per-scan dense table (the
// sync time depends on the scan's DP degree, so resetMemo clears it).
func (t *task) dpSyncTimeAt(stage, minTP, d int) float64 {
	slot := tpSlotOf(minTP)
	if slot < 0 {
		bytes := int64(t.partition[stage]) * t.pl.Cfg.GradBytesPerLayer(minTP)
		return t.pl.Sim.DPSyncTime(bytes, d)
	}
	i := stage*taskTPSlots + slot
	if t.syncTok[i] == cacheOK {
		return t.syncT[i]
	}
	bytes := int64(t.partition[stage]) * t.pl.Cfg.GradBytesPerLayer(minTP)
	v := t.pl.Sim.DPSyncTime(bytes, d)
	t.syncT[i], t.syncTok[i] = v, cacheOK
	return v
}

// minTP resolves heuristic H2's minimum viable tensor-parallel degree
// through the task's dense cache. The in-flight count saturates at the
// pipeline depth, and pp and mbs are fixed within a task while layers is a
// function of stage, so (stage, ti, capped nb) is a complete key.
func (t *task) minTP(g core.GPUType, ti, layers, stage, pp, mbs, nb int) int {
	if nb > pp {
		nb = pp
	}
	idx := (stage*len(t.s.rs.types)+ti)*(pp+1) + nb
	if v := t.minTPT[idx]; v >= 0 {
		return int(v)
	}
	v := memory.MinTP(t.pl.Cfg, g, layers, stage, pp, mbs, nb)
	t.minTPT[idx] = int16(v)
	return v
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
