// Package model describes the transformer models that the evaluation
// trains (OPT-350M, GPT-Neo-2.7B) plus a generic config for others.
//
// It provides the analytical per-layer accounting that the profiler and
// simulator need: parameter counts, forward/backward FLOPs, activation
// footprints, and message sizes for tensor/pipeline/data-parallel
// communication. Formulas follow the standard dense-decoder accounting used
// by Megatron-style systems.
package model

import "fmt"

// Config describes a dense decoder-only transformer and its training job
// hyperparameters. The planner never alters GlobalBatch or SeqLen (§4.2:
// Sailor does not change training dynamics).
type Config struct {
	Name        string
	Hidden      int // model (embedding) dimension
	Layers      int // number of transformer blocks
	Heads       int // attention heads
	Vocab       int // vocabulary size
	SeqLen      int // sequence length in tokens
	GlobalBatch int // sequences per iteration
}

// OPT350M returns the OPT-350M configuration used throughout §5
// (gbs 2048 sequences, seq len 2048 tokens, Adam).
func OPT350M() Config {
	return Config{
		Name: "OPT-350M", Hidden: 1024, Layers: 24, Heads: 16,
		Vocab: 50272, SeqLen: 2048, GlobalBatch: 2048,
	}
}

// GPTNeo27B returns the GPT-Neo-2.7B configuration used in §5.
func GPTNeo27B() Config {
	return Config{
		Name: "GPT-Neo-2.7B", Hidden: 2560, Layers: 32, Heads: 20,
		Vocab: 50257, SeqLen: 2048, GlobalBatch: 2048,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Hidden <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.Vocab <= 0 ||
		c.SeqLen <= 0 || c.GlobalBatch <= 0:
		return fmt.Errorf("model %q: all dimensions must be positive: %+v", c.Name, c)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %q: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	}
	return nil
}

// LayerParams returns parameters of one transformer block: QKV and output
// projections (4h^2), the two MLP matrices (8h^2), and biases/layer norms
// (~13h).
func (c Config) LayerParams() int64 {
	h := int64(c.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns the token + learned position embedding parameters,
// resident on the first pipeline stage (the output head on the last stage is
// tied to the token embedding).
func (c Config) EmbeddingParams() int64 {
	return int64(c.Vocab)*int64(c.Hidden) + int64(c.SeqLen)*int64(c.Hidden)
}

// TotalParams returns the full model parameter count.
func (c Config) TotalParams() int64 {
	return int64(c.Layers)*c.LayerParams() + c.EmbeddingParams()
}

// StageParams returns the parameters a worker holds for `layers` transformer
// blocks with tensor parallelism tp, plus the embedding share if the stage is
// first or last. Layer-norm/bias parameters are replicated across TP ranks;
// matrices are sharded.
func (c Config) StageParams(layers, tp int, first, last bool) int64 {
	h := int64(c.Hidden)
	matrix := 12 * h * h / int64(tp)
	rest := 13 * h
	p := int64(layers) * (matrix + rest)
	if first {
		p += c.EmbeddingParams() / int64(tp)
	}
	if last {
		// Tied output head: vocab projection shard.
		p += int64(c.Vocab) * h / int64(tp)
	}
	return p
}

// LayerFwdFLOPs returns the forward-pass FLOPs of one transformer block for
// a microbatch of b sequences: 24*b*s*h^2 for the matmuls plus 4*b*s^2*h for
// attention score/value products.
func (c Config) LayerFwdFLOPs(b int) float64 {
	s := float64(c.SeqLen)
	h := float64(c.Hidden)
	bb := float64(b)
	return bb * s * (24*h*h + 4*h*s)
}

// LayerBwdFLOPs returns the backward-pass FLOPs (2x forward for dense nets).
func (c Config) LayerBwdFLOPs(b int) float64 { return 2 * c.LayerFwdFLOPs(b) }

// HeadFLOPs returns the FLOPs of the output projection + softmax loss for a
// microbatch of b sequences, paid by the last stage only.
func (c Config) HeadFLOPs(b int) float64 {
	return 2 * float64(b) * float64(c.SeqLen) * float64(c.Hidden) * float64(c.Vocab)
}

// ActivationBytesPerLayer returns the activation memory one worker retains
// for one microbatch of one layer at tensor parallelism tp, in bytes
// (half-precision training, no recomputation). The standard accounting is
//
//	s*b*h*(10 + 24/t) + 5*a*s^2*b/t
//
// where the first term covers MLP/LN/dropout buffers and the second the
// attention score matrices.
func (c Config) ActivationBytesPerLayer(b, tp int) int64 {
	s := int64(c.SeqLen)
	h := int64(c.Hidden)
	a := int64(c.Heads)
	bb := int64(b)
	t := int64(tp)
	return s*bb*h*10 + s*bb*h*24/t + 5*a*s*s*bb/t
}

// BoundaryActivationBytes returns the bytes of the activation tensor sent
// between adjacent pipeline stages for one microbatch (half precision).
func (c Config) BoundaryActivationBytes(b int) int64 {
	return 2 * int64(b) * int64(c.SeqLen) * int64(c.Hidden)
}

// GradBytesPerLayer returns the gradient bytes all-reduced per layer by data
// parallelism (half-precision gradients), for a TP shard of degree tp.
func (c Config) GradBytesPerLayer(tp int) int64 {
	h := int64(c.Hidden)
	return 2 * (12*h*h/int64(tp) + 13*h)
}
