package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// Tests for the short-horizon DAG + extrapolation pipeline-time model that
// backs Sailor's §5.1 accuracy.

func TestPipelineTimeMatchesExactDAG(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	fwd := []float64{0.01, 0.01, 0.01, 0.01}
	bwd := []float64{0.02, 0.02, 0.02, 0.02}
	comm := []float64{0.005, 0.005, 0.005}
	const nb = 200
	got, err := s.pipelineTime(fwd, bwd, comm, nb, &pipeline.Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	sched, _ := pipeline.OneFOneB(len(fwd), nb)
	exact, err := pipeline.Makespan(sched,
		func(st, _ int) float64 { return fwd[st] },
		func(st, _ int) float64 { return bwd[st] },
		func(b int) float64 { return comm[b] })
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(got-exact) / exact
	if rel > 0.02 {
		t.Errorf("extrapolated %v vs exact %v: %.2f%% apart", got, exact, 100*rel)
	}
}

func TestPipelineTimeShortIterationExact(t *testing.T) {
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	fwd := []float64{0.01, 0.03}
	bwd := []float64{0.02, 0.06}
	comm := []float64{0.004}
	const nb = 5 // below the 4P prefix: must be evaluated exactly
	got, err := s.pipelineTime(fwd, bwd, comm, nb, &pipeline.Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	sched, _ := pipeline.OneFOneB(2, nb)
	exact, _ := pipeline.Makespan(sched,
		func(st, _ int) float64 { return fwd[st] },
		func(st, _ int) float64 { return bwd[st] },
		func(b int) float64 { return comm[b] })
	if got != exact {
		t.Errorf("short iterations must use the exact DAG: %v != %v", got, exact)
	}
}

func TestDeepPipelineLatencyExposure(t *testing.T) {
	// The structural effect the closed form misses: with a static 1F1B
	// schedule, boundary latency near the pipeline tail stalls each
	// microbatch. The DAG-based estimate must exceed the fully-overlapped
	// closed form when comm is comparable to stage compute.
	cfg := model.OPT350M()
	s := newSim(t, cfg, core.A100)
	p := 8
	fwd := make([]float64, p)
	bwd := make([]float64, p)
	comm := make([]float64, p-1)
	for i := range fwd {
		fwd[i], bwd[i] = 0.002, 0.004
	}
	for i := range comm {
		comm[i] = 0.003 // comparable to f+b
	}
	const nb = 256
	dag, err := s.pipelineTime(fwd, bwd, comm, nb, &pipeline.Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	closed, _ := pipeline.AnalyticTime(fwd, bwd, comm, nb, 1)
	if dag <= closed*1.05 {
		t.Errorf("DAG estimate %v should expose latency stalls above the closed form %v", dag, closed)
	}
}
