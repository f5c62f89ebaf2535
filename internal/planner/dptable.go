package planner

// dpTable is the scan-local DP memo for inline-packed states: an
// open-addressed, linear-probe hash table over the pointer-free dpFastKey.
// The runtime map this replaces spent the DP's hottest instruction stream
// on generic hashing and bucket probes; here the probe is one multiply-mix
// and a couple of word compares against adjacent slots. Key, value and
// epoch live in one slot struct so a probe touches a single cache line
// rather than three parallel arrays. Scans are reset by bumping an epoch —
// stale slots simply read as vacant — so clearing costs nothing regardless
// of how large the previous scan grew — and the slots are kept across the
// jobs of a search too (the table is part of the task scratch). Stale vals
// point into the task's node arena; they are never read, and the table dies
// with the search.
type dpTable struct {
	slots []dpSlot
	epoch uint32
	mask  uint64
	n     int
}

type dpSlot struct {
	key   dpFastKey
	val   *dpNode
	epoch uint32
}

// dpTableInitSlots is the initial capacity. Scans double their way up via
// grow, whose rehash work telescopes to ~2x the final size — noise next to
// evaluating the nodes that filled the table.
const dpTableInitSlots = 1 << 6

// reset starts a new scan: every existing slot becomes vacant at once.
// Allocation is deferred to the first put — a budget-constrained scan never
// stores an entry, so it never builds a table.
func (t *dpTable) reset() {
	// Epoch 0 is the vacant value of freshly allocated slots; every scan
	// runs at a later one.
	t.epoch++
	t.n = 0
}

// hash mixes the three key words; the lanes of w0/w1 are small counts, so
// the multiplies spread them across the word before the fold.
func (k dpFastKey) hash() uint64 {
	h := k.w0*0x9e3779b97f4a7c15 ^ k.w1*0xc2b2ae3d27d4eb4f ^ k.meta*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

func (t *dpTable) get(k dpFastKey) (*dpNode, bool) {
	if t.slots == nil {
		return nil, false
	}
	i := k.hash() & t.mask
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			return nil, false
		}
		if s.key == k {
			return s.val, true
		}
		i = (i + 1) & t.mask
	}
}

func (t *dpTable) put(k dpFastKey, v *dpNode) {
	if t.slots == nil {
		t.slots = make([]dpSlot, dpTableInitSlots)
		t.mask = dpTableInitSlots - 1
	} else if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	i := k.hash() & t.mask
	for {
		s := &t.slots[i]
		if s.epoch != t.epoch {
			s.key, s.val, s.epoch = k, v, t.epoch
			t.n++
			return
		}
		if s.key == k {
			s.val = v
			return
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table, rehashing only the live epoch's entries.
func (t *dpTable) grow() {
	old := t.slots
	size := 2 * len(old)
	t.slots = make([]dpSlot, size)
	t.mask = uint64(size - 1)
	t.n = 0
	for i := range old {
		if old[i].epoch == t.epoch {
			t.put(old[i].key, old[i].val)
		}
	}
}
