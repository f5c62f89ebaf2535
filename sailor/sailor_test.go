package sailor

import (
	"testing"
	"time"
)

func TestEndToEndWorkflow(t *testing.T) {
	sys, err := New(OPT350M(), []GPUType{A100, V100}, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool().
		Set(GCPZone("us-central1", 'a'), A100, 16).
		Set(GCPZone("us-central1", 'a'), V100, 16)

	res, err := sys.Plan(pool, MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.GPUCount() == 0 || res.Plan.GPUCount() > 32 {
		t.Fatalf("plan uses %d GPUs from a 32-GPU pool", res.Plan.GPUCount())
	}

	est, err := sys.Simulate(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	real, err := sys.Measure(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !real.FitsMemory {
		t.Fatal("planned configuration must deploy without OOM")
	}
	rel := est.IterTime/real.IterTime - 1
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.15 {
		t.Errorf("simulator %v vs testbed %v: %.0f%% apart", est.IterTime, real.IterTime, rel*100)
	}
}

func TestPlanWithBudget(t *testing.T) {
	sys, err := New(OPT350M(), []GPUType{A100})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool().Set(GCPZone("us-central1", 'a'), A100, 64)
	res, err := sys.Plan(pool, MaxThroughput, Constraints{MaxCostPerIter: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Estimate.Cost(); got > 0.5 {
		t.Fatalf("plan costs $%v/iter over the $0.5 budget", got)
	}
}

func TestElasticController(t *testing.T) {
	sys, err := New(OPT350M(), []GPUType{A100})
	if err != nil {
		t.Fatal(err)
	}
	z := GCPZone("us-central1", 'a')
	tr := SyntheticTrace(time.Hour,
		TraceEvent{At: 0, Zone: z, GPU: A100, Delta: 8},
		TraceEvent{At: 20 * time.Minute, Zone: z, GPU: A100, Delta: 8},
	)
	ctrl := sys.NewController()
	rep, err := ctrl.RunElastic(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IterationsDone == 0 {
		t.Fatal("elastic run trained nothing")
	}
	if len(rep.Reconfigs) < 2 {
		t.Fatalf("expected initial deploy + growth reconfig, got %d", len(rep.Reconfigs))
	}
}

func TestProfilingOverheadIsReported(t *testing.T) {
	sys, err := New(OPT350M(), []GPUType{A100})
	if err != nil {
		t.Fatal(err)
	}
	o := sys.ProfilingOverhead()
	if o <= 0 || o > time.Hour {
		t.Errorf("profiling overhead %v implausible", o)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(OPT350M(), nil); err == nil {
		t.Error("want error with no GPU types")
	}
	bad := OPT350M()
	bad.Layers = 0
	if _, err := New(bad, []GPUType{A100}); err == nil {
		t.Error("want error for invalid model")
	}
}

// TestWorkersConfigurationDeterminism: the facade returns the identical
// plan at any Workers setting.
func TestWorkersConfigurationDeterminism(t *testing.T) {
	z := GCPZone("us-central1", 'a')
	pool := NewPool().Set(z, A100, 32).Set(z, V100, 32)
	var ref string
	for i, w := range []int{1, 8} {
		sys, err := New(OPT350M(), []GPUType{A100, V100}, WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Plan(pool, MaxThroughput, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Plan.String()
		} else if got := res.Plan.String(); got != ref {
			t.Errorf("workers=%d plan differs:\n%s\n%s", w, ref, got)
		}
	}
}

// TestEstimatorSeam: the simulator and ground truth both score a planned
// configuration, and agree it fits.
func TestEstimatorSeam(t *testing.T) {
	sys, err := New(OPT350M(), []GPUType{A100})
	if err != nil {
		t.Fatal(err)
	}
	z := GCPZone("us-central1", 'a')
	res, err := sys.Plan(NewPool().Set(z, A100, 16), MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for name, estimate := range map[string]func(Plan) (Estimate, error){
		"simulator":   sys.Simulate,
		"groundtruth": sys.Measure,
	} {
		est, err := estimate(res.Plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !est.FitsMemory || est.IterTime <= 0 || est.Throughput() <= 0 || est.PeakMemory <= 0 {
			t.Errorf("%s: implausible estimate %+v", name, est)
		}
	}
}
