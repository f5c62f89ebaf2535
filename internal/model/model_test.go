package model

import (
	"testing"
	"testing/quick"
)

func TestOPT350MParamCount(t *testing.T) {
	c := OPT350M()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	total := c.TotalParams()
	// OPT-350M has ~350M parameters; our accounting should land within 15%.
	if total < 300e6 || total > 420e6 {
		t.Errorf("OPT-350M params = %d, want ~350M", total)
	}
}

func TestGPTNeo27BParamCount(t *testing.T) {
	c := GPTNeo27B()
	total := c.TotalParams()
	if total < 2.4e9 || total > 3.0e9 {
		t.Errorf("GPT-Neo-2.7B params = %d, want ~2.7B", total)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := OPT350M()
	c.Heads = 7 // 1024 % 7 != 0
	if err := c.Validate(); err == nil {
		t.Error("want divisibility error")
	}
	c = OPT350M()
	c.Layers = 0
	if err := c.Validate(); err == nil {
		t.Error("want positivity error")
	}
}

func TestStageParamsTPSharding(t *testing.T) {
	c := OPT350M()
	full := c.StageParams(6, 1, false, false)
	half := c.StageParams(6, 2, false, false)
	// Matrices shard by TP; biases/LN replicate, so half > full/2 but close.
	if half >= full {
		t.Fatalf("TP=2 should shrink stage params: %d >= %d", half, full)
	}
	if half < full/2 {
		t.Fatalf("TP=2 cannot shard below matrices/2 + replicated rest: %d < %d", half, full/2)
	}
}

func TestStageParamsEmbeddingPlacement(t *testing.T) {
	c := OPT350M()
	mid := c.StageParams(6, 1, false, false)
	first := c.StageParams(6, 1, true, false)
	last := c.StageParams(6, 1, false, true)
	if first <= mid {
		t.Error("first stage must carry embedding params")
	}
	if last <= mid {
		t.Error("last stage must carry output-head params")
	}
}

func TestLayerFLOPsScaleWithBatch(t *testing.T) {
	c := OPT350M()
	if got, want := c.LayerFwdFLOPs(4), 4*c.LayerFwdFLOPs(1); got != want {
		t.Errorf("FLOPs not linear in batch: %v vs %v", got, want)
	}
	if c.LayerBwdFLOPs(2) != 2*c.LayerFwdFLOPs(2) {
		t.Error("backward should be 2x forward")
	}
}

func TestActivationBytesShrinkWithTP(t *testing.T) {
	c := GPTNeo27B()
	a1 := c.ActivationBytesPerLayer(4, 1)
	a4 := c.ActivationBytesPerLayer(4, 4)
	if a4 >= a1 {
		t.Fatalf("TP=4 should reduce activation bytes: %d >= %d", a4, a1)
	}
	// The 10*s*b*h term is not sharded, so reduction is partial.
	if a4 < a1/4 {
		t.Fatalf("activation sharding too aggressive: %d < %d", a4, a1/4)
	}
}

func TestBoundaryActivationBytes(t *testing.T) {
	c := OPT350M()
	// 2 bytes * b * s * h
	want := int64(2 * 3 * 2048 * 1024)
	if got := c.BoundaryActivationBytes(3); got != want {
		t.Errorf("BoundaryActivationBytes(3) = %d, want %d", got, want)
	}
}

func TestGradBytesPerLayer(t *testing.T) {
	c := OPT350M()
	g1 := c.GradBytesPerLayer(1)
	g2 := c.GradBytesPerLayer(2)
	if g2 >= g1 {
		t.Error("TP sharding should reduce per-rank gradient bytes")
	}
	// Gradients are half precision: bytes = 2 * params-ish.
	if g1 < c.LayerParams() || g1 > 3*c.LayerParams() {
		t.Errorf("grad bytes %d implausible for %d params", g1, c.LayerParams())
	}
}

// Property: stage parameter accounting is additive — splitting a layer range
// into two stages conserves parameters (modulo no embedding).
func TestStageParamsAdditiveProperty(t *testing.T) {
	c := OPT350M()
	f := func(n1, n2 uint8, tpExp uint8) bool {
		l1, l2 := int(n1%8)+1, int(n2%8)+1
		tp := 1 << (tpExp % 3)
		joint := c.StageParams(l1+l2, tp, false, false)
		split := c.StageParams(l1, tp, false, false) + c.StageParams(l2, tp, false, false)
		return joint == split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: activation bytes are monotone in microbatch size.
func TestActivationMonotoneProperty(t *testing.T) {
	c := GPTNeo27B()
	f := func(b uint8, tpExp uint8) bool {
		mb := int(b%16) + 1
		tp := 1 << (tpExp % 4)
		return c.ActivationBytesPerLayer(mb+1, tp) > c.ActivationBytesPerLayer(mb, tp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
