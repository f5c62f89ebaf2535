package planner

// Region-indexed resource state and its packed DP memo keys. Each worker
// mutates its own copy of the regionState.

import (
	"encoding/binary"

	"repro/internal/cluster"
	"repro/internal/core"
)

// regionState indexes the pool for the DP: available GPU counts per
// (region bucket, GPU type). The live representation is a bitset-packed
// lane vector — one 16-bit lane per cell, four lanes per word, in matrix
// order — so the availability mutations of the DP's hot loop
// (applyChoice/undoChoice) are single-word shift arithmetic and the memo
// key (dpKey) is built from the words with word-wide operations instead of
// re-packing cell by cell. A lane holds at most laneMax (1<<15 - 1), which
// leaves its top bit free for the key's lane-wise minimum (minLanes); pools
// with a larger count fall back to a plain matrix (wide). Every pool in the
// evaluation fits the lanes.
type regionState struct {
	regions []string
	types   []core.GPUType
	// words holds the availability lanes: cell ri*len(types)+ti lives in
	// words[cell/4] at bit offset (cell%4)*16.
	words []uint64
	// wide is the fallback matrix, non-nil only when some count > laneMax.
	wide  [][]int
	zones []core.Zone // one synthetic zone per region
}

// laneShift returns the in-word bit offset of a cell.
func laneShift(cell int) uint { return uint(cell&3) * 16 }

// count reads one availability cell.
func (rs *regionState) count(ri, ti int) int {
	if rs.wide != nil {
		return rs.wide[ri][ti]
	}
	cell := ri*len(rs.types) + ti
	return int(rs.words[cell>>2] >> laneShift(cell) & 0xffff)
}

// addCount adjusts one availability cell. Lanes never borrow or carry into
// a neighbour: subtractions are bounded by the availability checks the DP
// performs before applying a choice, and additions only restore counts that
// fit the lane when the state was built.
func (rs *regionState) addCount(ri, ti, delta int) {
	if rs.wide != nil {
		rs.wide[ri][ti] += delta
		return
	}
	cell := ri*len(rs.types) + ti
	if delta >= 0 {
		rs.words[cell>>2] += uint64(delta) << laneShift(cell)
	} else {
		rs.words[cell>>2] -= uint64(-delta) << laneShift(cell)
	}
}

// available reports whether any region bucket holds GPUs of type ti.
func (rs *regionState) available(ti int) bool {
	for ri := range rs.regions {
		if rs.count(ri, ti) > 0 {
			return true
		}
	}
	return false
}

// cells is the number of (region, type) availability cells.
func (rs *regionState) cells() int { return len(rs.regions) * len(rs.types) }

// newRegionState indexes the pool for the DP. With mergeZones (H6) the
// search granularity is one bucket per region; without it every zone is its
// own bucket, inflating the search space exactly as the ablation intends.
func newRegionState(p *cluster.Pool, mergeZones bool) *regionState {
	rs := &regionState{}
	typeIdx := map[core.GPUType]int{}
	for _, g := range p.GPUTypes() {
		typeIdx[g] = len(rs.types)
		rs.types = append(rs.types, g)
	}
	var counts [][]int
	bucketIdx := map[string]int{}
	for _, z := range p.Zones() {
		name := z.Region
		if !mergeZones {
			name = z.Name
		}
		ri, ok := bucketIdx[name]
		if !ok {
			ri = len(rs.regions)
			bucketIdx[name] = ri
			rs.regions = append(rs.regions, name)
			counts = append(counts, make([]int, len(rs.types)))
			rs.zones = append(rs.zones, core.Zone{Region: z.Region, Name: name})
		}
		for ti, g := range rs.types {
			counts[ri][ti] += p.Available(z, g)
		}
	}
	fits := true
	for _, row := range counts {
		for _, c := range row {
			if uint(c) > laneMax {
				fits = false
			}
		}
	}
	if !fits {
		rs.wide = counts
		return rs
	}
	rs.words = make([]uint64, (rs.cells()+3)/4)
	for ri, row := range counts {
		for ti, c := range row {
			rs.addCount(ri, ti, c)
		}
	}
	return rs
}

func (rs *regionState) totalGPUs() int {
	n := 0
	if rs.wide != nil {
		for _, row := range rs.wide {
			for _, c := range row {
				n += c
			}
		}
		return n
	}
	for _, w := range rs.words {
		// Unused tail lanes of the last word are zero.
		n += int(w&0xffff) + int(w>>16&0xffff) + int(w>>32&0xffff) + int(w>>48&0xffff)
	}
	return n
}

// copyTo makes dst an independent copy of rs, reusing dst's count storage:
// the immutable index is shared, the counts are copied.
func (rs *regionState) copyTo(dst *regionState) {
	dst.regions, dst.types, dst.zones = rs.regions, rs.types, rs.zones
	dst.words = append(dst.words[:0], rs.words...)
	if rs.wide == nil {
		dst.wide = nil
		return
	}
	dst.wide = resized(dst.wide, len(rs.wide))
	for i, row := range rs.wide {
		dst.wide[i] = append(dst.wide[i][:0], row...)
	}
}

// dpKeyCells is the number of (region, type) availability cells a dpKey can
// pack inline (16 bits each across two words). Searches over wider pools
// spill to an allocated byte string; every pool in the evaluation — and
// every ablation, including zone-granular search — fits inline.
const dpKeyCells = 8

// laneMax is the largest count a lane holds.
const laneMax = 1<<15 - 1

// dpKey is the packed, comparable memo key of one solveDP call: the stage
// index, the region scan position ri, and the counts of regions ri..R-1 —
// the only availability the call reads (lanes of earlier regions are zero)
// — each clamped to what the stages from this one on can spend of its type
// (laneCaps). It replaces the fmt-built string key that dominated the
// cold-search profile — building one is a handful of word operations and
// hashing it is one memhash over a 40-byte struct, with no allocation. The
// map probe itself is the DP's hottest instruction stream, so the struct is
// kept minimal.
type dpKey struct {
	w0, w1 uint64 // clamped counts, 16 bits per cell, in matrix order
	stage  uint16
	ri     uint16
	n      uint16
	// spill holds a varint encoding of the clamped counts of regions
	// ri..R-1 when the matrix does not fit the inline cells (too many cells
	// or a count > laneMax). The words are zeroed in that case so equal
	// spills compare equal.
	spill string
}

// dpFastKey is the memo key of the common case — availability packed inline
// in the dpKey words. It is pointer-free, so hashing touches nothing beyond
// the 24-byte struct and equality is three word compares; the spill-backed
// dpKey map is only consulted for pools too wide to pack.
type dpFastKey struct {
	w0, w1 uint64
	meta   uint64 // stage | ri<<16 | n<<32
}

// fastKey converts an inline-packed dpKey; callers check spill == "" first.
func fastKey(k dpKey) dpFastKey {
	return dpFastKey{w0: k.w0, w1: k.w1,
		meta: uint64(k.stage) | uint64(k.ri)<<16 | uint64(k.n)<<32}
}

// laneCaps bounds each memo-key lane by what the remaining stages can use:
// at stage i, a cell of type t is clamped to d · Σ_{j≥i} maxTP_j(t), the
// most GPUs of t that stages i..P-1 together can take from one region
// (every replica of every stage on t at the largest TP buildCombos offers).
// The clamp is exact: each availability check along the suffix asks
// avail ≥ need, with need plus what the suffix already spent at most the
// cap, so a count at the cap and one above it pass the same checks and the
// two states solve to the same node. States that differ only in GPUs the
// suffix can never use thus share one key.
type laneCaps struct {
	// byType[i*types+t] is stage i's cap of type t.
	byType []int
	// words[2i], words[2i+1] are stage i's caps in the dpKey layout — each
	// cell's lane holds its type's cap, at most laneMax — for pools that
	// pack inline.
	words []uint64
}

// pack lays byType out as words for a pool of the given cells.
func (c *laneCaps) pack(types, cells int) {
	if cells == 0 || cells > dpKeyCells {
		c.words = c.words[:0]
		return
	}
	stages := len(c.byType) / types
	c.words = resized(c.words, 2*stages)
	clear(c.words)
	for i := 0; i < stages; i++ {
		for cell := 0; cell < cells; cell++ {
			v := min(c.byType[i*types+cell%types], laneMax)
			c.words[2*i+cell/4] |= uint64(v) << laneShift(cell)
		}
	}
}

// packedKey builds the memo key for (stage, ri) over the counts of regions
// ri..R-1 — all that solveDP(stage, ri) reads, since H5 scans regions
// forward only — each clamped to the stage's cap, so suffix states that
// differ only in GPUs spent in earlier regions, or in GPUs no remaining
// stage can use, share one key. Pools with at most dpKeyCells cells need no
// per-cell packing: the live lanes already use the dpKey layout, and the
// key is their words with the lanes before region ri masked off and a
// lane-wise minimum against the caps' words.
func (rs *regionState) packedKey(stage, ri int, caps *laneCaps) dpKey {
	cells := rs.cells()
	k := dpKey{stage: uint16(stage), ri: uint16(ri), n: uint16(cells)}
	if rs.wide == nil && cells <= dpKeyCells {
		spent := ri * len(rs.types) * 16 // bits of the lanes before region ri
		k.w0 = minLanes(rs.words[0]&lanesFrom(spent), caps.words[2*stage])
		if len(rs.words) > 1 {
			k.w1 = minLanes(rs.words[1]&lanesFrom(spent-64), caps.words[2*stage+1])
		}
		return k
	}
	row := caps.byType[stage*len(rs.types):]
	buf := make([]byte, 0, 4*(len(rs.regions)-ri)*len(rs.types))
	for r := ri; r < len(rs.regions); r++ {
		for ti := range rs.types {
			buf = binary.AppendVarint(buf, int64(min(rs.count(r, ti), row[ti])))
		}
	}
	k.spill = string(buf)
	return k
}

// laneHigh is the top bit of every 16-bit lane.
const laneHigh = 0x8000_8000_8000_8000

// minLanes is the lane-wise minimum of two words whose lanes are all at
// most laneMax. Setting a lane's top bit before subtracting keeps every
// lane's difference positive, so no lane borrows from its neighbour, and
// leaves the top bit set exactly where a ≥ b; that bit, spread over its
// lane, selects b there and a elsewhere.
func minLanes(a, b uint64) uint64 {
	ge := ((a | laneHigh) - b) & laneHigh
	m := (ge >> 15) * 0xffff
	return b&m | a&^m
}

// lanesFrom masks a word down to its bits at offset >= bits.
func lanesFrom(bits int) uint64 {
	if bits <= 0 {
		return ^uint64(0)
	}
	return ^uint64(0) << uint(bits) // zero once bits >= 64
}
