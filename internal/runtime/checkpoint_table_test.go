package runtime

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// ckptStep drives one CheckpointManager interaction.
type ckptStep struct {
	iter int     // OnIteration(iter, now) when > 0
	now  float64 // virtual time of the step
	// rollback, when true, calls Rollback(now) instead and asserts resume.
	rollback   bool
	wantResume int
}

// TestCheckpointRollbackTable covers the rollback accounting across
// checkpoint intervals, including the zero-interval and
// reconfig-during-flush edge cases the async semantics make subtle.
func TestCheckpointRollbackTable(t *testing.T) {
	cases := []struct {
		name  string
		every int
		flush float64
		steps []ckptStep
	}{
		{
			name: "durable-after-flush", every: 10, flush: 5,
			steps: []ckptStep{
				{iter: 10, now: 100},
				{rollback: true, now: 106, wantResume: 10},
			},
		},
		{
			name: "reconfig-during-flush-discards-pending", every: 10, flush: 5,
			steps: []ckptStep{
				{iter: 10, now: 100},
				{rollback: true, now: 102, wantResume: 0},
				// The discarded snapshot never lands, even after its
				// original flush deadline passes.
				{rollback: true, now: 200, wantResume: 0},
			},
		},
		{
			name: "zero-interval-never-checkpoints", every: 0, flush: 5,
			steps: []ckptStep{
				{iter: 1, now: 1},
				{iter: 100, now: 100},
				{rollback: true, now: 1000, wantResume: 0},
			},
		},
		{
			name: "negative-interval-never-checkpoints", every: -3, flush: 5,
			steps: []ckptStep{
				{iter: 3, now: 10},
				{rollback: true, now: 100, wantResume: 0},
			},
		},
		{
			name: "zero-flush-durable-immediately", every: 5, flush: 0,
			steps: []ckptStep{
				{iter: 5, now: 50},
				{rollback: true, now: 50, wantResume: 5},
			},
		},
		{
			name: "in-flight-snapshot-skips-next-interval", every: 5, flush: 100,
			steps: []ckptStep{
				{iter: 5, now: 10},
				{iter: 10, now: 20}, // still flushing iteration 5: skipped
				{rollback: true, now: 111, wantResume: 5},
				// Iteration 10's snapshot was skipped for good.
				{rollback: true, now: 500, wantResume: 5},
			},
		},
		{
			name: "sequential-checkpoints-advance", every: 5, flush: 2,
			steps: []ckptStep{
				{iter: 5, now: 10},
				{iter: 10, now: 20}, // promotes 5, starts 10
				{iter: 15, now: 30}, // promotes 10, starts 15
				{rollback: true, now: 30.5, wantResume: 10},
			},
		},
		{
			name: "rollback-then-resume-checkpointing", every: 5, flush: 2,
			steps: []ckptStep{
				{iter: 5, now: 10},
				{rollback: true, now: 10.5, wantResume: 0},
				{iter: 5, now: 20},
				{rollback: true, now: 23, wantResume: 5},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCheckpointManager(tc.every, tc.flush)
			for i, st := range tc.steps {
				if st.rollback {
					if got := c.Rollback(st.now); got != st.wantResume {
						t.Errorf("step %d: Rollback(%v) = %d, want %d", i, st.now, got, st.wantResume)
					}
					continue
				}
				c.OnIteration(st.iter, st.now)
			}
		})
	}
}

// TestControllerRollbackAccounting ties the manager to the controller's
// books: across an elastic run the per-reconfig RolledBackIters stay
// bounded by interval + in-flight, and LostIterations matches their sum.
func TestControllerRollbackAccounting(t *testing.T) {
	for _, every := range []int{1, 5, 10} {
		cfg := model.OPT350M()
		c := newController(t, cfg, core.A100)
		c.Cfg.CheckpointEvery = every
		c.ckpt = NewCheckpointManager(every, c.Cfg.CheckpointFlushSec)
		tr := trace.Synthetic(2*time.Hour,
			trace.Event{At: 0, Zone: zoneA, GPU: core.A100, Delta: 8},
			trace.Event{At: 30 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: 8},
			trace.Event{At: 60 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: -12},
			trace.Event{At: 90 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: 8},
		)
		rep, err := c.RunElastic(tr)
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		sum := 0
		for i, r := range rep.Reconfigs {
			sum += r.RolledBackIters
			// Each rollback loses at most a full interval plus whatever was
			// in flight when the reconfig hit.
			if r.RolledBackIters > every+every+1 {
				t.Errorf("every=%d reconfig %d: rolled back %d iterations", every, i, r.RolledBackIters)
			}
		}
		if rep.LostIterations != sum {
			t.Errorf("every=%d: LostIterations=%d, reconfig sum=%d", every, rep.LostIterations, sum)
		}
	}
}

// TestRunElasticBlackoutStopsTraining: a snapshot with zero total GPUs
// tears the deployment down — no iterations accrue on a phantom topology
// until capacity returns and the controller replans.
func TestRunElasticBlackoutStopsTraining(t *testing.T) {
	cfg := model.OPT350M()
	run := func(events ...trace.Event) Report {
		c := newController(t, cfg, core.A100)
		rep, err := c.RunElastic(trace.Synthetic(90*time.Minute, events...))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	steady := run(
		trace.Event{At: 0, Zone: zoneA, GPU: core.A100, Delta: 8},
	)
	blackout := run(
		trace.Event{At: 0, Zone: zoneA, GPU: core.A100, Delta: 8},
		trace.Event{At: 30 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: -8},
		trace.Event{At: 60 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: 8},
	)
	if blackout.IterationsDone <= 0 {
		t.Fatal("no training around the blackout")
	}
	// A third of the horizon had zero GPUs; the run must train measurably
	// less than the steady one, not sail through the gap at full rate.
	if blackout.IterationsDone >= steady.IterationsDone*5/6 {
		t.Errorf("blackout run trained %d iterations vs steady %d; the gap was trained through",
			blackout.IterationsDone, steady.IterationsDone)
	}
	// The virtual clock spans the whole horizon even through the gap.
	if blackout.VirtualSeconds < 90*60 {
		t.Errorf("virtual clock stopped during the blackout: %.0fs", blackout.VirtualSeconds)
	}

	// A trace that ENDS in the blackout must still book the rollback: the
	// workers died with everything past the last durable checkpoint. A
	// flush longer than the trace keeps every snapshot non-durable, so the
	// whole run must be reported lost.
	c := newController(t, cfg, core.A100)
	c.Cfg.CheckpointFlushSec = 2 * 3600
	c.ckpt = NewCheckpointManager(c.Cfg.CheckpointEvery, c.Cfg.CheckpointFlushSec)
	final, err := c.RunElastic(trace.Synthetic(90*time.Minute,
		trace.Event{At: 0, Zone: zoneA, GPU: core.A100, Delta: 8},
		trace.Event{At: 60 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: -8},
	))
	if err != nil {
		t.Fatal(err)
	}
	if final.LostIterations != final.IterationsDone || final.IterationsDone <= 0 {
		t.Errorf("trace-final blackout with no durable checkpoint: lost %d of %d iterations, want all",
			final.LostIterations, final.IterationsDone)
	}
}

// TestControllerZeroIntervalRunElastic: a controller configured with no
// checkpointing (interval forced to zero after construction) rolls every
// reconfiguration back to iteration zero and reports zero checkpoints.
func TestControllerZeroIntervalRunElastic(t *testing.T) {
	cfg := model.OPT350M()
	c := newController(t, cfg, core.A100)
	c.Cfg.CheckpointEvery = 0
	c.ckpt = NewCheckpointManager(0, c.Cfg.CheckpointFlushSec)
	tr := trace.Synthetic(time.Hour,
		trace.Event{At: 0, Zone: zoneA, GPU: core.A100, Delta: 8},
		trace.Event{At: 30 * time.Minute, Zone: zoneA, GPU: core.A100, Delta: 8},
	)
	rep, err := c.RunElastic(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointsTaken != 0 {
		t.Errorf("zero interval took %d checkpoints", rep.CheckpointsTaken)
	}
	if len(rep.Reconfigs) >= 2 && rep.Reconfigs[1].RolledBackIters == 0 {
		t.Error("without checkpoints the growth reconfig must roll back to zero")
	}
}
