package pipeline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOneFOneBStructure(t *testing.T) {
	const p, nb = 4, 8
	sched, err := OneFOneB(p, nb)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != p {
		t.Fatalf("stages = %d, want %d", len(sched), p)
	}
	for s, ops := range sched {
		if len(ops) != 2*nb {
			t.Fatalf("stage %d has %d ops, want %d", s, len(ops), 2*nb)
		}
		fwdSeen, bwdSeen := 0, 0
		inflight, maxInflight := 0, 0
		for _, op := range ops {
			if op.Kind == Fwd {
				if op.MB != fwdSeen {
					t.Fatalf("stage %d: forward order broken at mb %d", s, op.MB)
				}
				fwdSeen++
				inflight++
			} else {
				if op.MB != bwdSeen {
					t.Fatalf("stage %d: backward order broken at mb %d", s, op.MB)
				}
				bwdSeen++
				inflight--
			}
			if inflight > maxInflight {
				maxInflight = inflight
			}
		}
		if fwdSeen != nb || bwdSeen != nb {
			t.Fatalf("stage %d executed %dF/%dB, want %d each", s, fwdSeen, bwdSeen, nb)
		}
		// The 1F1B memory bound: at most min(p-s, nb) microbatches live.
		want := p - s
		if want > nb {
			want = nb
		}
		if maxInflight != want {
			t.Errorf("stage %d in-flight = %d, want %d", s, maxInflight, want)
		}
	}
}

func TestOneFOneBErrors(t *testing.T) {
	if _, err := OneFOneB(0, 4); err == nil {
		t.Error("want error for p=0")
	}
	if _, err := OneFOneB(4, 0); err == nil {
		t.Error("want error for nb=0")
	}
}

func uniform(p int, f, b float64) ([]float64, []float64, []float64) {
	fw := make([]float64, p)
	bw := make([]float64, p)
	cm := make([]float64, p-1)
	for i := range fw {
		fw[i], bw[i] = f, b
	}
	return fw, bw, cm
}

func TestAnalyticTimeHomogeneous(t *testing.T) {
	// No comm: T = (nb-1)*(f+b) + p*(f+b).
	fw, bw, cm := uniform(4, 1, 2)
	got, err := AnalyticTime(fw, bw, cm, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 7.0*3 + 4*3
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AnalyticTime = %v, want %v", got, want)
	}
}

func TestAnalyticTimeStragglerDominates(t *testing.T) {
	fw, bw, cm := uniform(4, 1, 2)
	fw[2] = 5 // stage 2 is 5x slower
	slow, _ := AnalyticTime(fw, bw, cm, 32, 0)
	fwU, bwU, _ := uniform(4, 1, 2)
	fast, _ := AnalyticTime(fwU, bwU, cm, 32, 0)
	if slow <= fast {
		t.Fatal("straggler must slow the pipeline")
	}
	// Steady state should track the straggler: ~(nb-1)*(5+2).
	if slow < 31*7 {
		t.Errorf("straggler steady phase underestimated: %v < %v", slow, 31*7.0)
	}
}

func TestAnalyticTimeOverlapReducesCommCost(t *testing.T) {
	fw, bw, _ := uniform(2, 1, 2)
	cm := []float64{0.5}
	blocking, _ := AnalyticTime(fw, bw, cm, 16, 0)
	overlapped, _ := AnalyticTime(fw, bw, cm, 16, 1)
	if overlapped >= blocking {
		t.Errorf("full overlap %v should beat blocking %v", overlapped, blocking)
	}
}

func TestAnalyticTimeErrors(t *testing.T) {
	if _, err := AnalyticTime(nil, nil, nil, 4, 0); err == nil {
		t.Error("want error for empty inputs")
	}
	fw, bw, cm := uniform(4, 1, 2)
	if _, err := AnalyticTime(fw, bw, cm, 0, 0); err == nil {
		t.Error("want error for nb=0")
	}
	if _, err := AnalyticTime(fw, bw, cm, 4, 1.5); err == nil {
		t.Error("want error for overlap out of range")
	}
	if _, err := AnalyticTime(fw, bw[:2], cm, 4, 0); err == nil {
		t.Error("want error for mismatched lengths")
	}
}

func constCost(v float64) func(int, int) float64 {
	return func(int, int) float64 { return v }
}

func TestMakespanSingleStage(t *testing.T) {
	sched, _ := OneFOneB(1, 4)
	got, err := Makespan(sched, constCost(1), constCost(2), func(int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-12) > 1e-9 { // 4*(1+2)
		t.Errorf("Makespan = %v, want 12", got)
	}
}

func TestMakespanMatchesAnalyticOnUniformPipeline(t *testing.T) {
	// For a homogeneous pipeline with zero comm, the closed form and the
	// exact DAG evaluation must agree closely — this is the calibration
	// that keeps the Sailor simulator within a few percent of ground truth.
	const p, nb = 4, 16
	sched, _ := OneFOneB(p, nb)
	exact, err := Makespan(sched, constCost(1), constCost(2), func(int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	fw, bw, cm := uniform(p, 1, 2)
	analytic, _ := AnalyticTime(fw, bw, cm, nb, 0)
	rel := math.Abs(exact-analytic) / exact
	if rel > 0.05 {
		t.Errorf("analytic %v vs exact %v: %.1f%% apart", analytic, exact, 100*rel)
	}
}

func TestMakespanCommDelaysPipeline(t *testing.T) {
	sched, _ := OneFOneB(3, 8)
	noComm, _ := Makespan(sched, constCost(1), constCost(2), func(int) float64 { return 0 })
	withComm, _ := Makespan(sched, constCost(1), constCost(2), func(int) float64 { return 0.5 })
	if withComm <= noComm {
		t.Error("boundary transfers must extend the makespan")
	}
}

func TestMakespanHeterogeneousStages(t *testing.T) {
	// Stage 1 is 3x slower; makespan must be dominated by it.
	sched, _ := OneFOneB(2, 16)
	fwd := func(s, _ int) float64 {
		if s == 1 {
			return 3
		}
		return 1
	}
	got, err := Makespan(sched, fwd, constCost(2), func(int) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if got < 16*5 { // slow stage does 16 * (3+2)
		t.Errorf("Makespan %v below the straggler's own work %v", got, 16*5.0)
	}
}

func TestMakespanEmpty(t *testing.T) {
	if _, err := Makespan(nil, nil, nil, nil); err == nil {
		t.Error("want error for empty schedule")
	}
}

// Property: makespan is monotone — adding more microbatches never shortens
// the iteration, and deeper pipelines never beat the ideal lower bound
// nb * (f + b) of a single stage's own work.
func TestMakespanLowerBoundProperty(t *testing.T) {
	f := func(pp, nn uint8) bool {
		p := int(pp%6) + 1
		nb := int(nn%12) + 1
		sched, err := OneFOneB(p, nb)
		if err != nil {
			return false
		}
		got, err := Makespan(sched, constCost(1), constCost(2), func(int) float64 { return 0 })
		if err != nil {
			return false
		}
		return got >= float64(nb)*3-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMakespanStageCostsMatchesMakespan: the flat evaluator the simulator
// runs is bit-for-bit equal to the map-based Makespan over random pipeline
// depths, microbatch counts and stage costs, with one Scratch reused across
// every shape (growing and shrinking), and Cached1F1B hands out exactly
// OneFOneB's schedule. Half the cases draw costs from a coarse grid so that
// exact ties between dependency and predecessor arrival times occur.
func TestMakespanStageCostsMatchesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cost := func(coarse bool) float64 {
		if coarse {
			return float64(rng.Intn(4)) * 0.25
		}
		return rng.Float64()
	}
	var sc Scratch
	for i := 0; i < 500; i++ {
		p := 1 + rng.Intn(8)
		nb := 1 + rng.Intn(4*p+2)
		coarse := i%2 == 0
		fwd, bwd, comm := make([]float64, p), make([]float64, p), make([]float64, p-1)
		for s := 0; s < p; s++ {
			fwd[s], bwd[s] = 0.01+cost(coarse), 0.01+cost(coarse)
			if s < p-1 {
				comm[s] = cost(coarse)
			}
		}
		want, err := OneFOneB(p, nb)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := Cached1F1B(p, nb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sched, want) {
			t.Fatalf("p=%d nb=%d: Cached1F1B differs from OneFOneB", p, nb)
		}
		ref, err := Makespan(sched,
			func(s, _ int) float64 { return fwd[s] },
			func(s, _ int) float64 { return bwd[s] },
			func(b int) float64 { return comm[b] })
		if err != nil {
			t.Fatal(err)
		}
		got, err := MakespanStageCosts(sched, fwd, bwd, comm, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("p=%d nb=%d fwd=%v bwd=%v comm=%v: MakespanStageCosts %v != Makespan %v",
				p, nb, fwd, bwd, comm, got, ref)
		}
	}
}
