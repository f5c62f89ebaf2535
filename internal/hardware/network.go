package hardware

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// LinkClass partitions GPU-pair connectivity into the four bandwidth tiers
// the paper's experiments span (§4.1, §5.2.3).
type LinkClass int

const (
	// IntraNode links use NVLink or PCIe inside one machine.
	IntraNode LinkClass = iota
	// IntraZone links connect nodes within one availability zone.
	IntraZone
	// InterZone links connect zones of the same region. H6 rests on their
	// bandwidth being close to intra-zone bandwidth.
	InterZone
	// InterRegion links cross region boundaries and are the slow tier that
	// motivates H5 (no data parallelism across regions).
	InterRegion
)

// String implements fmt.Stringer.
func (c LinkClass) String() string {
	switch c {
	case IntraNode:
		return "intra-node"
	case IntraZone:
		return "intra-zone"
	case InterZone:
		return "inter-zone"
	case InterRegion:
		return "inter-region"
	}
	return fmt.Sprintf("LinkClass(%d)", int(c))
}

// LinkSpec parameterises one link tier: a fixed per-message latency and a
// saturating bandwidth curve. Effective bandwidth at message size s bytes is
//
//	bw(s) = GBs * s / (s + RampBytes)
//
// which reproduces the measured ramp-up that the paper captures by fitting a
// polynomial to NCCL measurements; RampBytes is the half-saturation size.
type LinkSpec struct {
	Class      LinkClass
	LatencySec float64
	GBs        float64 // saturated bandwidth, gigabytes per second
	RampBytes  float64
}

// TransferTime returns the time in seconds to move `bytes` across the link.
func (l LinkSpec) TransferTime(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	s := float64(bytes)
	bw := l.GBs * 1e9 * s / (s + l.RampBytes)
	return l.LatencySec + s/bw
}

// Network resolves links between workers. It is parameterised by the
// node NIC bandwidth of the two endpoints and the zone pair.
type Network struct {
	// IntraZoneGBs caps node-to-node bandwidth inside a zone (the NIC or
	// the fabric, whichever is lower).
	intraZone   LinkSpec
	interZone   LinkSpec
	interRegion LinkSpec
}

// DefaultNetwork returns link tiers modelled on GCP measurements reported in
// the cross-region training study the paper builds on [56]: ~100 Gbps NICs
// in-zone, near-identical inter-zone bandwidth within a region, and
// collective-visible cross-region bandwidth 1.5-2 orders of magnitude lower
// (WAN trunks shared, TCP-limited), with ~20 ms one-way latency between
// same-continent regions.
func DefaultNetwork() *Network {
	return &Network{
		intraZone:   LinkSpec{Class: IntraZone, LatencySec: 30e-6, GBs: 12.0, RampBytes: 4 << 20},
		interZone:   LinkSpec{Class: InterZone, LatencySec: 200e-6, GBs: 10.0, RampBytes: 8 << 20},
		interRegion: LinkSpec{Class: InterRegion, LatencySec: 20e-3, GBs: 0.25, RampBytes: 8 << 20},
	}
}

// IntraNodeLink returns the link between two GPUs of the same node.
func IntraNodeLink(g core.GPUType) LinkSpec {
	spec := MustLookup(g)
	return LinkSpec{Class: IntraNode, LatencySec: 5e-6, GBs: spec.IntraNodeGBs, RampBytes: 1 << 20}
}

// Classify returns the link class between two zones.
func (n *Network) Classify(a, b core.Zone) LinkClass {
	switch {
	case a == b:
		return IntraZone
	case a.SameRegion(b):
		return InterZone
	default:
		return InterRegion
	}
}

// Link returns the link spec between nodes in zones a and b. GPU NIC limits
// are applied by the caller via MinWithNIC when endpoints are known.
func (n *Network) Link(a, b core.Zone) LinkSpec {
	switch n.Classify(a, b) {
	case InterZone:
		return n.interZone
	case InterRegion:
		return n.interRegion
	default:
		return n.intraZone
	}
}

// MinWithNIC caps a link's bandwidth by the NIC bandwidth (in Gbit/s) of the
// slower endpoint, modelling that a V100 VM with a 32 Gbps NIC cannot reach
// the zone fabric's 100 Gbps.
func MinWithNIC(l LinkSpec, nicGbpsA, nicGbpsB float64) LinkSpec {
	nic := math.Min(nicGbpsA, nicGbpsB) / 8.0 // GB/s
	if nic < l.GBs {
		l.GBs = nic
	}
	return l
}

// PolyFit holds fitted coefficients of transfer time as a function of
// message size: time(s) = c0 + c1*s + c2*s*log2(s). This is the artefact the
// Sailor profiler produces for every node-type pair (§4.1); the simulator
// consumes the coefficients rather than the underlying LinkSpec.
type PolyFit struct {
	C0, C1, C2 float64
}

// Eval returns the fitted transfer time in seconds for a message of s bytes.
func (p PolyFit) Eval(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	s := float64(bytes)
	t := p.C0 + p.C1*s + p.C2*s*math.Log2(s)
	if t < 0 {
		return 0
	}
	return t
}

// FitLink samples a link across message sizes and performs a least-squares
// fit of the PolyFit basis. Sampling spans 4 KiB to 1 GiB, covering the
// activation and gradient messages seen in training.
func FitLink(l LinkSpec) PolyFit {
	// Basis: [1, s, s*log2(s)]. Normal equations on log-spaced samples.
	var xtx [3][3]float64
	var xty [3]float64
	for s := int64(4 << 10); s <= 1<<30; s *= 2 {
		y := l.TransferTime(s)
		fs := float64(s)
		row := [3]float64{1, fs, fs * math.Log2(fs)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y
		}
	}
	sol, ok := solve3(xtx, xty)
	if !ok {
		// Degenerate fit: fall back to pure bandwidth term.
		return PolyFit{C0: l.LatencySec, C1: 1 / (l.GBs * 1e9)}
	}
	return PolyFit{C0: sol[0], C1: sol[1], C2: sol[2]}
}

// solve3 solves a 3x3 linear system with Gaussian elimination and partial
// pivoting. Returns false when the system is singular.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	// Augment and eliminate.
	m := [3][4]float64{}
	for i := 0; i < 3; i++ {
		copy(m[i][:3], a[i][:])
		m[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-30 {
			return [3]float64{}, false
		}
		m[col], m[p] = m[p], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		x[i] = m[i][3] / m[i][i]
	}
	return x, true
}
