// Package hardware is the hardware catalogue of the Sailor reproduction:
// GPU specifications, node (VM) types, the message-size-dependent network
// bandwidth model, and cloud pricing.
//
// The paper profiles real machines (§4.1); this package substitutes public
// datasheet figures and a parametric link model. Everything downstream
// (profiler, simulator, planner) consumes only these numbers, so the
// substitution is contained here.
package hardware

import (
	"fmt"

	"repro/internal/core"
)

// GPUSpec describes one GPU SKU as the black-box compute unit of §4.3.
type GPUSpec struct {
	Type core.GPUType
	// MemoryBytes is the usable HBM capacity.
	MemoryBytes int64
	// PeakTFLOPS is the half-precision (fp16/bf16) tensor-core peak.
	PeakTFLOPS float64
	// MemBWGBs is HBM bandwidth in GB/s, used by the roofline profile model.
	MemBWGBs float64
	// Efficiency is the fraction of peak FLOPS achieved on dense
	// transformer matmuls (MFU-like), derived from published benchmarks.
	Efficiency float64
	// IntraNodeGBs is GPU-to-GPU bandwidth inside a node (NVLink or PCIe).
	IntraNodeGBs float64
	// CostPerHour is the on-demand USD price per GPU-hour.
	CostPerHour float64
}

const giB = int64(1) << 30

// catalogue lists every GPU type used in the paper's evaluation.
// Peak TFLOPS/memory are datasheet values; Efficiency reflects typical
// measured transformer MFU per generation.
var catalogue = map[core.GPUType]GPUSpec{
	core.A100: {
		Type: core.A100, MemoryBytes: 40 * giB, PeakTFLOPS: 312,
		MemBWGBs: 1555, Efficiency: 0.50, IntraNodeGBs: 300, CostPerHour: 3.67,
	},
	core.V100: {
		Type: core.V100, MemoryBytes: 16 * giB, PeakTFLOPS: 125,
		MemBWGBs: 900, Efficiency: 0.40, IntraNodeGBs: 150, CostPerHour: 2.48,
	},
	core.GH200: {
		Type: core.GH200, MemoryBytes: 96 * giB, PeakTFLOPS: 990,
		MemBWGBs: 4000, Efficiency: 0.52, IntraNodeGBs: 450, CostPerHour: 11.0,
	},
	core.RTX3090: {
		Type: core.RTX3090, MemoryBytes: 24 * giB, PeakTFLOPS: 142,
		MemBWGBs: 936, Efficiency: 0.35, IntraNodeGBs: 32, CostPerHour: 1.10,
	},
	core.RTX2080: {
		Type: core.RTX2080, MemoryBytes: 11 * giB, PeakTFLOPS: 90,
		MemBWGBs: 616, Efficiency: 0.30, IntraNodeGBs: 16, CostPerHour: 0.60,
	},
	core.TitanRTX: {
		Type: core.TitanRTX, MemoryBytes: 24 * giB, PeakTFLOPS: 130,
		MemBWGBs: 672, Efficiency: 0.32, IntraNodeGBs: 16, CostPerHour: 0.90,
	},
	core.A10G: {
		Type: core.A10G, MemoryBytes: 24 * giB, PeakTFLOPS: 125,
		MemBWGBs: 600, Efficiency: 0.40, IntraNodeGBs: 32, CostPerHour: 1.21,
	},
	core.T4: {
		Type: core.T4, MemoryBytes: 16 * giB, PeakTFLOPS: 65,
		MemBWGBs: 300, Efficiency: 0.30, IntraNodeGBs: 16, CostPerHour: 0.53,
	},
	core.H100: {
		Type: core.H100, MemoryBytes: 80 * giB, PeakTFLOPS: 989,
		MemBWGBs: 3350, Efficiency: 0.45, IntraNodeGBs: 450, CostPerHour: 6.98,
	},
}

// Lookup returns the spec for a GPU type.
func Lookup(t core.GPUType) (GPUSpec, error) {
	s, ok := catalogue[t]
	if !ok {
		return GPUSpec{}, fmt.Errorf("hardware: unknown GPU type %q", t)
	}
	return s, nil
}

// MustLookup is Lookup for callers that have already validated the type.
func MustLookup(t core.GPUType) GPUSpec {
	s, err := Lookup(t)
	if err != nil {
		panic(err)
	}
	return s
}

// Register adds or replaces a GPU spec in the catalogue. Adding a new GPU
// type only requires a spec plus profiling data (paper §4.1): tests use this
// to introduce synthetic accelerators, matching the claim that Sailor treats
// GPUs as black boxes.
func Register(s GPUSpec) error {
	if s.Type == "" {
		return fmt.Errorf("hardware: empty GPU type")
	}
	if s.MemoryBytes <= 0 || s.PeakTFLOPS <= 0 || s.Efficiency <= 0 || s.Efficiency > 1 {
		return fmt.Errorf("hardware: invalid spec for %q", s.Type)
	}
	catalogue[s.Type] = s
	return nil
}

// NodeType describes a VM or on-premise machine: a set of identical GPUs
// with a NIC. The paper's cloud experiments use 4-GPU VMs; the on-premise
// clusters use 4x GH200 and 8x RTX-class machines.
type NodeType struct {
	GPU         core.GPUType
	GPUsPerNode int
	// NICGbps is the node's network bandwidth in Gbit/s.
	NICGbps float64
}

// DefaultNodeType returns the node shape used throughout the evaluation for
// a GPU type: 4-GPU VMs in the cloud (A100/V100/GH200-like), 8-GPU machines
// for the RTX on-premise cluster.
func DefaultNodeType(t core.GPUType) NodeType {
	switch t {
	case core.RTX3090, core.RTX2080, core.TitanRTX:
		return NodeType{GPU: t, GPUsPerNode: 8, NICGbps: 25}
	case core.GH200:
		return NodeType{GPU: t, GPUsPerNode: 4, NICGbps: 200}
	case core.H100:
		return NodeType{GPU: t, GPUsPerNode: 8, NICGbps: 400}
	default:
		return NodeType{GPU: t, GPUsPerNode: 4, NICGbps: 100}
	}
}
