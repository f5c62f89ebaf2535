package trace

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

func TestGCPA100TraceShape(t *testing.T) {
	tr, zoneA, zoneB := GCPA100Trace(42)
	if tr.Horizon != 8*time.Hour {
		t.Fatalf("horizon = %v, want 8h", tr.Horizon)
	}
	// Figure 2 shape: zone A reaches the full 8 GPUs only near hour 7...
	endA := tr.CountAt(tr.Horizon, zoneA, core.A100)
	if endA != 8 {
		t.Errorf("zone A final count = %d, want 8", endA)
	}
	atSixHours := tr.CountAt(6*time.Hour, zoneA, core.A100)
	if atSixHours >= 8 {
		t.Errorf("zone A should not reach 8 before hour 7, has %d at 6h", atSixHours)
	}
	// ... and zone B never attains the request.
	for at := time.Duration(0); at <= tr.Horizon; at += 10 * time.Minute {
		if n := tr.CountAt(at, zoneB, core.A100); n >= 8 {
			t.Fatalf("zone B reached %d GPUs at %v; should stay below 8", n, at)
		}
	}
}

func TestCountNeverNegative(t *testing.T) {
	tr, zoneA, zoneB := GCPA100Trace(7)
	for at := time.Duration(0); at <= tr.Horizon; at += 5 * time.Minute {
		for _, z := range []core.Zone{zoneA, zoneB} {
			if n := tr.CountAt(at, z, core.A100); n < 0 {
				t.Fatalf("negative availability %d at %v in %s", n, at, z)
			}
		}
	}
}

func TestTraceIsDeterministic(t *testing.T) {
	a, za, _ := GCPA100Trace(1)
	b, _, _ := GCPA100Trace(1)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed produced different traces: %d vs %d events", len(a.Events), len(b.Events))
	}
	if a.CountAt(4*time.Hour, za, core.A100) != b.CountAt(4*time.Hour, za, core.A100) {
		t.Error("same seed must reproduce identical counts")
	}
}

func TestPoolAt(t *testing.T) {
	tr, zoneA, _ := GCPA100Trace(42)
	p := tr.PoolAt(tr.Horizon)
	if got := p.Available(zoneA, core.A100); got != 8 {
		t.Errorf("PoolAt(end) zone A = %d, want 8", got)
	}
}

func TestSyntheticAndSample(t *testing.T) {
	z := core.Zone{Region: "r", Name: "r-a"}
	tr := Synthetic(time.Hour,
		Event{At: 30 * time.Minute, Zone: z, GPU: core.V100, Delta: 4},
		Event{At: 10 * time.Minute, Zone: z, GPU: core.V100, Delta: 2},
		Event{At: 45 * time.Minute, Zone: z, GPU: core.V100, Delta: -1},
	)
	// Events must be sorted regardless of insertion order.
	if tr.Events[0].At != 10*time.Minute {
		t.Fatalf("events not sorted: %+v", tr.Events)
	}
	pts := tr.Sample(z, core.V100, 15*time.Minute)
	// Samples at 0/15/30/45/60 min; events at exactly t are included.
	want := []int{0, 2, 6, 5, 5}
	if len(pts) != 5 {
		t.Fatalf("Sample returned %d points, want 5", len(pts))
	}
	for i, w := range want {
		if pts[i].Count != w {
			t.Errorf("sample %d = %d, want %d", i, pts[i].Count, w)
		}
	}
}

// TestSteps pins the replay grouping: one step per instant, in time order,
// cap events before the availability events of the same instant. Events
// are told apart by Delta, cap events by GPUs.
func TestSteps(t *testing.T) {
	z := core.Zone{Region: "r", Name: "r-a"}
	ev := func(min, delta int) Event {
		return Event{At: time.Duration(min) * time.Minute, Zone: z, GPU: core.A100, Delta: delta}
	}
	cp := func(min, gpus int) CapEvent { return CapEvent{At: time.Duration(min) * time.Minute, GPUs: gpus} }
	type step struct {
		min    int
		caps   []int // GPUs of each cap event
		deltas []int // Delta of each availability event
	}
	for _, tc := range []struct {
		name   string
		events []Event
		caps   []CapEvent
		want   []step
	}{
		{"empty", nil, nil, nil},
		{"equal-instants", []Event{ev(0, 1), ev(0, 2), ev(5, 3), ev(5, 4), ev(5, 5)}, nil,
			[]step{{0, nil, []int{1, 2}}, {5, nil, []int{3, 4, 5}}}},
		{"only-caps", nil, []CapEvent{cp(1, 8), cp(1, 6), cp(3, 4)},
			[]step{{1, []int{8, 6}, nil}, {3, []int{4}, nil}}},
		{"only-events", []Event{ev(2, 1), ev(4, -1)}, nil,
			[]step{{2, nil, []int{1}}, {4, nil, []int{-1}}}},
		{"cap-and-event-same-instant", []Event{ev(1, 1), ev(2, 2), ev(4, 3)}, []CapEvent{cp(2, 8), cp(3, 6)},
			[]step{{1, nil, []int{1}}, {2, []int{8}, []int{2}}, {3, []int{6}, nil}, {4, nil, []int{3}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &Trace{Horizon: time.Hour, Events: tc.events, CapEvents: tc.caps}
			got := tr.Steps()
			if len(got) != len(tc.want) {
				t.Fatalf("%d steps %+v, want %d", len(got), got, len(tc.want))
			}
			for i, w := range tc.want {
				g := got[i]
				var caps, deltas []int
				for _, c := range g.Caps {
					caps = append(caps, c.GPUs)
				}
				for _, e := range g.Events {
					deltas = append(deltas, e.Delta)
				}
				if g.At != time.Duration(w.min)*time.Minute || !slices.Equal(caps, w.caps) || !slices.Equal(deltas, w.deltas) {
					t.Errorf("step %d = at %v caps %v deltas %v, want at %dm caps %v deltas %v",
						i, g.At, caps, deltas, w.min, w.caps, w.deltas)
				}
			}
		})
	}
}
