package hardware

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestLookupKnownTypes(t *testing.T) {
	for _, g := range []core.GPUType{core.A100, core.V100, core.GH200, core.RTX3090, core.RTX2080, core.TitanRTX} {
		s, err := Lookup(g)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", g, err)
		}
		if s.MemoryBytes <= 0 || s.PeakTFLOPS <= 0 || s.CostPerHour <= 0 {
			t.Errorf("Lookup(%s): incomplete spec %+v", g, s)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("TPU-v9"); err == nil {
		t.Fatal("want error for unknown GPU type")
	}
}

func TestRegisterNewAccelerator(t *testing.T) {
	// Paper §4.3: GPUs are black boxes, so adding an accelerator is just a
	// spec + profile. Verify registration round-trips.
	spec := GPUSpec{Type: "TPU-v5e", MemoryBytes: 16 << 30, PeakTFLOPS: 197,
		MemBWGBs: 820, Efficiency: 0.45, IntraNodeGBs: 100, CostPerHour: 1.2}
	if err := Register(spec); err != nil {
		t.Fatalf("Register: %v", err)
	}
	got, err := Lookup("TPU-v5e")
	if err != nil || got.PeakTFLOPS != 197 {
		t.Fatalf("Lookup after Register = %+v, %v", got, err)
	}
	if err := Register(GPUSpec{Type: "bad"}); err == nil {
		t.Fatal("Register should reject invalid spec")
	}
	if err := Register(GPUSpec{}); err == nil {
		t.Fatal("Register should reject empty type")
	}
}

func TestGPURelativeOrdering(t *testing.T) {
	// The evaluation's load-balancing logic depends on A100 being both
	// faster and larger than V100.
	a, v := MustLookup(core.A100), MustLookup(core.V100)
	if a.PeakTFLOPS <= v.PeakTFLOPS {
		t.Error("A100 must out-FLOP V100")
	}
	if a.MemoryBytes <= v.MemoryBytes {
		t.Error("A100 must have more memory than V100")
	}
	if a.MemoryBytes/v.MemoryBytes < 2 {
		t.Error("paper relies on A100:V100 memory ratio >= 2 for load balancing")
	}
}

func TestDefaultNodeType(t *testing.T) {
	if n := DefaultNodeType(core.A100); n.GPUsPerNode != 4 {
		t.Errorf("A100 node = %+v, want 4 GPUs (paper uses 4-GPU VMs)", n)
	}
	if n := DefaultNodeType(core.RTX3090); n.GPUsPerNode != 8 {
		t.Errorf("RTX node = %+v, want 8 GPUs (paper uses 8-GPU machines)", n)
	}
}

func TestLinkTransferTimeMonotone(t *testing.T) {
	l := DefaultNetwork().Link(core.Zone{Region: "r", Name: "a"}, core.Zone{Region: "r", Name: "a"})
	prev := 0.0
	for s := int64(1 << 10); s <= 1<<30; s *= 4 {
		got := l.TransferTime(s)
		if got <= prev {
			t.Fatalf("TransferTime not increasing at %d bytes: %v <= %v", s, got, prev)
		}
		prev = got
	}
	if l.TransferTime(0) != 0 {
		t.Error("zero bytes should cost zero")
	}
}

func TestLinkBandwidthSaturates(t *testing.T) {
	l := LinkSpec{Class: IntraZone, LatencySec: 30e-6, GBs: 12, RampBytes: 4 << 20}
	gbs := func(bytes int64) float64 { return float64(bytes) / l.TransferTime(bytes) / 1e9 }
	small := gbs(64 << 10)
	large := gbs(1 << 30)
	if small >= large {
		t.Errorf("effective bandwidth should ramp with size: %v >= %v", small, large)
	}
	if large > l.GBs {
		t.Errorf("effective bandwidth %v exceeds saturated %v", large, l.GBs)
	}
	if large < 0.8*l.GBs {
		t.Errorf("1 GiB message should approach saturation: %v of %v", large, l.GBs)
	}
}

func TestNetworkClassify(t *testing.T) {
	n := DefaultNetwork()
	a := core.Zone{Region: "us-central1", Name: "us-central1-a"}
	b := core.Zone{Region: "us-central1", Name: "us-central1-b"}
	c := core.Zone{Region: "us-west1", Name: "us-west1-a"}
	if n.Classify(a, a) != IntraZone {
		t.Error("same zone should classify intra-zone")
	}
	if n.Classify(a, b) != InterZone {
		t.Error("same region should classify inter-zone")
	}
	if n.Classify(a, c) != InterRegion {
		t.Error("different regions should classify inter-region")
	}
}

func TestNetworkTierOrdering(t *testing.T) {
	// H5/H6 rest on: intra-zone ~ inter-zone >> inter-region.
	n := DefaultNetwork()
	a := core.Zone{Region: "r0", Name: "r0-a"}
	b := core.Zone{Region: "r0", Name: "r0-b"}
	c := core.Zone{Region: "r1", Name: "r1-a"}
	const msg = 256 << 20
	intra := n.Link(a, a).TransferTime(msg)
	inter := n.Link(a, b).TransferTime(msg)
	region := n.Link(a, c).TransferTime(msg)
	if !(intra <= inter && inter < region) {
		t.Fatalf("tier ordering violated: intra %v, inter-zone %v, inter-region %v", intra, inter, region)
	}
	if region < 5*inter {
		t.Errorf("inter-region should be much slower: %v vs %v", region, inter)
	}
}

func TestMinWithNIC(t *testing.T) {
	l := LinkSpec{Class: IntraZone, GBs: 12, RampBytes: 1}
	capped := MinWithNIC(l, 32, 100) // 32 Gbps NIC = 4 GB/s
	if capped.GBs != 4 {
		t.Errorf("MinWithNIC = %v GB/s, want 4", capped.GBs)
	}
	uncapped := MinWithNIC(l, 400, 400)
	if uncapped.GBs != 12 {
		t.Errorf("fast NICs should not cap: %v", uncapped.GBs)
	}
}

func TestFitLinkAccuracy(t *testing.T) {
	// The fitted polynomial must stay within a few percent of the true
	// transfer time across the training message-size range.
	for _, l := range []LinkSpec{
		{Class: IntraZone, LatencySec: 30e-6, GBs: 12, RampBytes: 4 << 20},
		{Class: InterRegion, LatencySec: 15e-3, GBs: 1.2, RampBytes: 16 << 20},
	} {
		fit := FitLink(l)
		for s := int64(64 << 10); s <= 1<<30; s *= 2 {
			want := l.TransferTime(s)
			got := fit.Eval(s)
			relErr := math.Abs(got-want) / want
			if relErr > 0.20 {
				t.Errorf("%v: fit at %d bytes off by %.1f%% (got %v want %v)",
					l.Class, s, 100*relErr, got, want)
			}
		}
	}
}

func TestPolyFitEvalEdgeCases(t *testing.T) {
	p := PolyFit{C0: -1, C1: 0, C2: 0}
	if p.Eval(100) != 0 {
		t.Error("negative fits should clamp to zero")
	}
	if (PolyFit{C0: 1}).Eval(0) != 0 {
		t.Error("zero bytes should be free")
	}
}

func TestPricing(t *testing.T) {
	pr := DefaultPricing()
	if got := pr.EgressUSD(IntraZone, 1<<30); got != 0 {
		t.Errorf("intra-zone egress should be free, got %v", got)
	}
	ir := pr.EgressUSD(InterRegion, 2e9)
	iz := pr.EgressUSD(InterZone, 2e9)
	if ir <= iz || iz <= 0 {
		t.Errorf("egress ordering wrong: inter-region %v, inter-zone %v", ir, iz)
	}
	// 8 A100s for one hour at list price.
	got := pr.ComputeUSD(core.A100, 8, 3600)
	want := 8 * MustLookup(core.A100).CostPerHour
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ComputeUSD = %v, want %v", got, want)
	}
	if pr.ComputeUSD(core.A100, 0, 10) != 0 || pr.ComputeUSD(core.A100, 2, 0) != 0 {
		t.Error("degenerate compute cost should be zero")
	}
	pr.GPUHourOverride = map[core.GPUType]float64{core.A100: 1.0}
	if pr.GPUHourUSD(core.A100) != 1.0 {
		t.Error("override not applied")
	}
}

// Property: transfer time is superadditive-resistant — sending one message
// of 2s bytes is never slower than two messages of s bytes (batching wins
// because latency is paid once).
func TestTransferBatchingProperty(t *testing.T) {
	l := DefaultNetwork().Link(core.Zone{Region: "r", Name: "a"}, core.Zone{Region: "r", Name: "b"})
	f := func(kb uint16) bool {
		s := int64(kb)*1024 + 1024
		return l.TransferTime(2*s) <= 2*l.TransferTime(s)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkClassString(t *testing.T) {
	for c, want := range map[LinkClass]string{
		IntraNode: "intra-node", IntraZone: "intra-zone",
		InterZone: "inter-zone", InterRegion: "inter-region",
	} {
		if c.String() != want {
			t.Errorf("LinkClass(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}
