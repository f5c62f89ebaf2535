package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func zone(r, n string) Zone { return Zone{Region: r, Name: n} }

func twoStagePlan() Plan {
	za := zone("us-central1", "us-central1-a")
	return Plan{
		MicroBatchSize: 2,
		Stages: []StagePlan{
			{FirstLayer: 0, NumLayers: 12, Replicas: []StageReplica{
				{GPU: A100, TP: 4, Zone: za}, {GPU: A100, TP: 4, Zone: za},
			}},
			{FirstLayer: 12, NumLayers: 12, Replicas: []StageReplica{
				{GPU: V100, TP: 8, Zone: za}, {GPU: V100, TP: 8, Zone: za},
			}},
		},
	}
}

func TestPlanDegrees(t *testing.T) {
	p := twoStagePlan()
	if got := p.PP(); got != 2 {
		t.Errorf("PP = %d, want 2", got)
	}
	if got := p.DP(); got != 2 {
		t.Errorf("DP = %d, want 2", got)
	}
	if got := p.GPUCount(); got != 2*4+2*8 {
		t.Errorf("GPUCount = %d, want 24", got)
	}
}

func TestPlanValidateOK(t *testing.T) {
	p := twoStagePlan()
	if err := p.Validate(24); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPlanValidateErrors(t *testing.T) {
	base := twoStagePlan()

	cases := []struct {
		name    string
		mutate  func(*Plan)
		layers  int
		wantSub string
	}{
		{"no stages", func(p *Plan) { p.Stages = nil }, 24, "no stages"},
		{"bad mbs", func(p *Plan) { p.MicroBatchSize = 0 }, 24, "microbatch"},
		{"uneven dp", func(p *Plan) { p.Stages[1].Replicas = p.Stages[1].Replicas[:1] }, 24, "DP"},
		{"gap", func(p *Plan) { p.Stages[1].FirstLayer = 13 }, 24, "starts at layer"},
		{"wrong coverage", func(p *Plan) {}, 25, "cover"},
		{"zero tp", func(p *Plan) { p.Stages[0].Replicas[0].TP = 0 }, 24, "TP"},
		{"empty gpu", func(p *Plan) { p.Stages[0].Replicas[0].GPU = "" }, 24, "GPU type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			// Deep-copy stages so mutations do not leak between cases.
			p.Stages = make([]StagePlan, len(base.Stages))
			for i, s := range base.Stages {
				s.Replicas = append([]StageReplica(nil), s.Replicas...)
				p.Stages[i] = s
			}
			tc.mutate(&p)
			err := p.Validate(tc.layers)
			if err == nil {
				t.Fatalf("Validate: want error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Validate: error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestPlanZonesAndTypes(t *testing.T) {
	p := twoStagePlan()
	p.Stages[1].Replicas[1].Zone = zone("us-west1", "us-west1-b")
	zs := p.Zones()
	if len(zs) != 2 {
		t.Fatalf("Zones = %v, want 2 zones", zs)
	}
	if zs[0].Name != "us-central1-a" || zs[1].Name != "us-west1-b" {
		t.Errorf("Zones not sorted: %v", zs)
	}
	ts := p.GPUTypes()
	if len(ts) != 2 || ts[0] != A100 || ts[1] != V100 {
		t.Errorf("GPUTypes = %v", ts)
	}
}

func TestZoneSameRegion(t *testing.T) {
	a := zone("us-central1", "us-central1-a")
	b := zone("us-central1", "us-central1-b")
	c := zone("us-west1", "us-west1-a")
	if !a.SameRegion(b) {
		t.Error("a and b should share a region")
	}
	if a.SameRegion(c) {
		t.Error("a and c should not share a region")
	}
}

func TestConstraintsSatisfied(t *testing.T) {
	c := Constraints{MaxCostPerIter: 1.0, MinThroughput: 0.2}
	if !c.Satisfied(4.0, 0.9) { // 0.25 iters/sec, $0.9
		t.Error("want satisfied at 0.25 it/s, $0.9")
	}
	if c.Satisfied(6.0, 0.9) { // 0.167 it/s below floor
		t.Error("throughput floor should reject 6 s/iter")
	}
	if c.Satisfied(4.0, 1.1) {
		t.Error("budget should reject $1.1")
	}
	var unconstrained Constraints
	if !unconstrained.Satisfied(100, 100) {
		t.Error("zero constraints must accept everything")
	}
}

func TestEstimateAccessors(t *testing.T) {
	e := Estimate{IterTime: 2.0, ComputeCost: 0.3, EgressCost: 0.1}
	if got := e.Throughput(); got != 0.5 {
		t.Errorf("Throughput = %v, want 0.5", got)
	}
	if got := e.Cost(); got != 0.4 {
		t.Errorf("Cost = %v, want 0.4", got)
	}
	if (Estimate{}).Throughput() != 0 {
		t.Error("zero estimate should have zero throughput")
	}
}

func TestPlanStringGroupsReplicas(t *testing.T) {
	s := twoStagePlan().String()
	if !strings.Contains(s, "PP=2 DP=2 mbs=2") {
		t.Errorf("String missing degrees: %s", s)
	}
	if !strings.Contains(s, "2xA100-40/tp4") {
		t.Errorf("String should group identical replicas: %s", s)
	}
}

func TestObjectiveString(t *testing.T) {
	if MaxThroughput.String() != "max-throughput" || MinCost.String() != "min-cost" {
		t.Error("objective names wrong")
	}
	if Objective(99).String() == "" {
		t.Error("unknown objective should still render")
	}
}

// Property: Satisfied is monotone — relaxing cost or time never flips a
// satisfied configuration to unsatisfied.
func TestConstraintsMonotoneProperty(t *testing.T) {
	f := func(maxCost, minTP float64, iterTime, cost float64, slack float64) bool {
		c := Constraints{MaxCostPerIter: abs(maxCost), MinThroughput: abs(minTP)}
		it, co := abs(iterTime)+0.001, abs(cost)
		s := abs(slack)
		if !c.Satisfied(it, co) {
			return true // vacuous
		}
		// Strictly better point (faster, cheaper) must also satisfy.
		return c.Satisfied(it/(1+s), co/(1+s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestParseObjective(t *testing.T) {
	for _, o := range []Objective{MaxThroughput, MinCost} {
		got, err := ParseObjective(o.String())
		if err != nil || got != o {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", o, got, err, o)
		}
	}
	if _, err := ParseObjective("fastest"); err == nil || !strings.Contains(err.Error(), "unknown objective") {
		t.Errorf("ParseObjective of a bad name = %v, want unknown-objective error", err)
	}
}

func TestSplitLayers(t *testing.T) {
	for _, tc := range []struct {
		l, p int
		want []int
	}{
		{24, 5, []int{5, 5, 5, 5, 4}},
		{24, 4, []int{6, 6, 6, 6}},
		{3, 1, []int{3}},
		{2, 3, []int{1, 1, 0}},
	} {
		if got := SplitLayers(tc.l, tc.p); !slices.Equal(got, tc.want) {
			t.Errorf("SplitLayers(%d, %d) = %v, want %v", tc.l, tc.p, got, tc.want)
		}
	}
}
