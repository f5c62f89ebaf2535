package collective

import (
	"testing"
	"testing/quick"

	"repro/internal/hardware"
)

var testLink = hardware.LinkSpec{Class: hardware.IntraZone, LatencySec: 30e-6, GBs: 12, RampBytes: 4 << 20}

func TestP2P(t *testing.T) {
	if P2P(testLink, 0) != 0 {
		t.Error("empty message should be free")
	}
	if P2P(testLink, 1<<20) <= 0 {
		t.Error("nonempty message must cost time")
	}
}

func TestRingAllReduceScaling(t *testing.T) {
	const bytes = 512 << 20
	t2 := RingAllReduce(testLink, bytes, 2)
	t8 := RingAllReduce(testLink, bytes, 8)
	if t2 <= 0 {
		t.Fatal("2-rank all-reduce must cost time")
	}
	// Ring all-reduce total traffic grows as 2*(n-1)/n: the 8-rank ring
	// moves more total data (and pays more latency steps) than the 2-rank
	// ring, which is why H3/H4 reason about DP scaling overheads.
	if t8 <= t2 {
		t.Errorf("8-rank ring %v should cost more than 2-rank %v", t8, t2)
	}
	if RingAllReduce(testLink, bytes, 1) != 0 {
		t.Error("single rank needs no sync")
	}
	if RingAllReduce(testLink, 0, 4) != 0 {
		t.Error("zero bytes need no sync")
	}
}

func TestRingAllReduceBandwidthBound(t *testing.T) {
	// For large messages, ring time approaches 2*(n-1)/n * bytes/bw.
	const bytes = int64(1) << 30
	for _, n := range []int{2, 4, 16} {
		ideal := 2 * float64(n-1) / float64(n) * float64(bytes) / (testLink.GBs * 1e9)
		got := RingAllReduce(testLink, bytes, n)
		if got < ideal*0.8 {
			t.Errorf("n=%d: %v under the bandwidth bound %v", n, got, ideal)
		}
		if got > ideal*3 {
			t.Errorf("n=%d: %v way above the bandwidth bound %v", n, got, ideal)
		}
	}
}

func TestFromFit(t *testing.T) {
	fit := hardware.FitLink(testLink)
	tm := FromFit(fit)
	direct := testLink.TransferTime(128 << 20)
	fitted := tm.TransferTime(128 << 20)
	rel := (fitted - direct) / direct
	if rel < -0.25 || rel > 0.25 {
		t.Errorf("fitted time %v too far from direct %v", fitted, direct)
	}
}

func TestRingCrossings(t *testing.T) {
	if got := RingCrossings([]int{8}); got != 0 {
		t.Errorf("single group crossings = %d, want 0", got)
	}
	if got := RingCrossings([]int{4, 4}); got != 2 {
		t.Errorf("two groups crossings = %d, want 2", got)
	}
	if got := RingCrossings([]int{4, 0, 4}); got != 2 {
		t.Errorf("empty groups must not count: %d, want 2", got)
	}
	if got := RingCrossings([]int{2, 2, 2}); got != 3 {
		t.Errorf("three groups crossings = %d, want 3", got)
	}
}

func TestAllReduceEgressBytes(t *testing.T) {
	if AllReduceEgressBytes(1<<20, 8, []int{8}) != 0 {
		t.Error("single-zone ring bills nothing")
	}
	got := AllReduceEgressBytes(1<<20, 4, []int{2, 2})
	perEdge := int64(1<<20) * 2 * 3 / 4
	if got != 2*perEdge {
		t.Errorf("egress = %d, want %d", got, 2*perEdge)
	}
}

// Property: ring all-reduce time is monotone in message size.
func TestRingMonotoneProperty(t *testing.T) {
	f := func(kb uint16, n uint8) bool {
		bytes := int64(kb)*1024 + 4096
		ranks := int(n%14) + 2
		return RingAllReduce(testLink, bytes+4096, ranks) >= RingAllReduce(testLink, bytes, ranks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
