// Package collective provides analytical cost models for the communication
// primitives distributed training uses: point-to-point activation transfer
// (pipeline parallelism), ring all-reduce (data-parallel gradient sync and
// tensor-parallel layer collectives), and all-gather.
//
// Costs are expressed over either a concrete hardware.LinkSpec or fitted
// hardware.PolyFit coefficients; the Sailor simulator uses the fitted form,
// matching §4.1 ("fitting a polynomial function to get a set of
// coefficients"), while the ground-truth engine uses the concrete links.
package collective

import "repro/internal/hardware"

// TimeModel abstracts "seconds to move n bytes across this link" so cost
// formulas work over both LinkSpec and PolyFit.
type TimeModel interface {
	TransferTime(bytes int64) float64
}

// polyAdapter lets a PolyFit satisfy TimeModel.
type polyAdapter struct{ f hardware.PolyFit }

func (p polyAdapter) TransferTime(b int64) float64 { return p.f.Eval(b) }

// FromFit wraps fitted coefficients as a TimeModel.
func FromFit(f hardware.PolyFit) TimeModel { return polyAdapter{f} }

// P2P returns the time to send one message of `bytes` between two workers.
func P2P(l TimeModel, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.TransferTime(bytes)
}

// RingAllReduce returns the time for n ranks to all-reduce `bytes` over the
// slowest link of the ring: each rank sends 2*(n-1)/n of the buffer in
// 2*(n-1) pipelined chunk steps.
func RingAllReduce(l TimeModel, bytes int64, n int) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	chunk := bytes / int64(n)
	if chunk < 1 {
		chunk = 1
	}
	steps := 2 * (n - 1)
	return float64(steps) * l.TransferTime(chunk)
}

// RingCrossings counts how many ring edges cross a boundary when ranks are
// grouped into `groups` consecutive blocks (e.g. zones). Each crossing edge
// carries the full 2*(n-1)/n traffic of the ring, which is what inter-zone
// egress is billed on. A ring over g groups crosses boundaries 2*g times
// when g > 1 (once in each direction per adjacency, and the wrap-around).
func RingCrossings(groupSizes []int) int {
	g := 0
	for _, s := range groupSizes {
		if s > 0 {
			g++
		}
	}
	if g <= 1 {
		return 0
	}
	return g // ring visits each group once; one outbound crossing per group
}

// AllReduceEgressBytes returns the bytes billed for a ring all-reduce of
// `bytes` over ranks partitioned into groups (zones). Each boundary-crossing
// edge carries 2*(n-1)/n * bytes of chunk traffic.
func AllReduceEgressBytes(bytes int64, n int, groupSizes []int) int64 {
	crossings := RingCrossings(groupSizes)
	if crossings == 0 || n <= 1 {
		return 0
	}
	perEdge := bytes * 2 * int64(n-1) / int64(n)
	return int64(crossings) * perEdge
}
