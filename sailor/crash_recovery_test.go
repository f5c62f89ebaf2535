package sailor

// Crash-recovery acceptance (e2e): a durable Service is killed midway
// through the preemption-storm fleet replay — journal abandoned, no final
// snapshot, the disk shape kill -9 leaves — and a fresh Service recovered
// from the same data dir plays the remaining steps byte-identically to the
// uninterrupted run, at workers=1 and workers=8. The uninterrupted sequence
// is pinned to a committed golden, so "matches the baseline tail" is
// "matches the golden tail".

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/testutil"
)

// crashStep is one fleet-replay step of the crash-recovery golden: one
// timestamp group's availability events, the leases they broke, the
// rebalance pass, and the post-step ledger state.
type crashStep struct {
	AtSeconds float64         `json:"at_seconds"`
	Events    int             `json:"events"`
	Broken    []string        `json:"broken,omitempty"`
	Rebalance []RebalanceStep `json:"rebalance"`
	Version   uint64          `json:"ledger_version"`
	Leases    []LeaseInfo     `json:"leases,omitempty"`
}

const crashJobs = 3

// crashTrace returns the preemption-storm trace grouped by timestamp — the
// same step notion sailor-replay -fleet uses — plus the scenario's GPU set
// and the auto per-job cap (half the base fleet).
func crashTrace(t *testing.T) ([][]TraceEvent, []GPUType, int) {
	t.Helper()
	sc, ok := ScenarioByName("preemption-storm")
	if !ok {
		t.Fatal("preemption-storm not registered")
	}
	tr := sc.TraceWith(1, ScenarioOpts{})
	var groups [][]TraceEvent
	for _, ev := range tr.Events {
		if n := len(groups); n > 0 && groups[n-1][0].At == ev.At {
			groups[n-1] = append(groups[n-1], ev)
			continue
		}
		groups = append(groups, []TraceEvent{ev})
	}
	if len(groups) < 4 {
		t.Fatalf("preemption-storm yields only %d steps; need a midpoint to crash at", len(groups))
	}
	return groups, sc.GPUs, sc.Defaults.Base / 2
}

// newCrashService builds a fleet service over an initially empty pool (the
// trace's availability events grow it), with the replay's per-job cap.
func newCrashService(workers, cap int) *Service {
	led := NewLedger(NewPool())
	led.SetJobCap(cap)
	return NewService(ServiceConfig{Workers: workers, MaxConcurrent: 4, Fleet: led})
}

// openCrashJobs admits the replay's contending tenants, job-0 highest
// priority — after any recorder is attached, so admissions journal.
func openCrashJobs(t *testing.T, svc API, gpus []GPUType) {
	t.Helper()
	for i := 0; i < crashJobs; i++ {
		if err := svc.OpenJob(fmt.Sprintf("job-%d", i), OPT350M(), gpus, crashJobs-i); err != nil {
			t.Fatal(err)
		}
	}
}

// driveGroup applies one timestamp group's events and rebalances, exactly
// as the sailor-replay fleet loop does. It takes the API interface, so the
// chaos e2e drives the identical loop through a wire Client.
func driveGroup(t *testing.T, svc API, g []TraceEvent) crashStep {
	t.Helper()
	step := crashStep{AtSeconds: g[0].At.Seconds(), Events: len(g)}
	for _, ev := range g {
		broken, err := svc.FleetEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range broken {
			step.Broken = append(step.Broken, b.Job)
		}
	}
	rsteps, err := svc.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	step.Rebalance = rsteps
	st, err := svc.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	step.Version = st.Version
	step.Leases = st.Leases
	return step
}

// marshalCrashSteps renders steps with the planner telemetry a crash
// legitimately perturbs zeroed: search wall-clock always, plus the
// warm-cache trajectory (explored, cache_hits, warm_start,
// oom_plans_emitted) — a recovered service replans from cold caches to the
// identical plan, but walks a different search. Plans, estimates, actions, ledger versions, and lease
// tables must be byte-identical.
func marshalCrashSteps(t *testing.T, steps []crashStep) []byte {
	t.Helper()
	raw, err := json.Marshal(steps)
	if err != nil {
		t.Fatal(err)
	}
	var arr []any
	if err := json.Unmarshal(raw, &arr); err != nil {
		t.Fatal(err)
	}
	for _, s := range arr {
		rbs, _ := s.(map[string]any)["rebalance"].([]any)
		for _, rb := range rbs {
			res, ok := rb.(map[string]any)["result"].(map[string]any)
			if !ok {
				continue
			}
			res["search_time_ns"] = 0.0
			res["explored"] = 0.0
			res["cache_hits"] = 0.0
			res["warm_start"] = false
			res["oom_plans_emitted"] = 0.0
		}
	}
	out, err := json.MarshalIndent(arr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// runUninterrupted plays the whole replay on a non-durable service.
func runUninterrupted(t *testing.T, groups [][]TraceEvent, gpus []GPUType, cap int) []crashStep {
	t.Helper()
	svc := newCrashService(1, cap)
	openCrashJobs(t, svc, gpus)
	steps := make([]crashStep, 0, len(groups))
	for _, g := range groups {
		steps = append(steps, driveGroup(t, svc, g))
	}
	return steps
}

// TestCrashRecoveryGolden pins the uninterrupted preemption-storm fleet
// sequence to a committed golden (regenerate with -update).
func TestCrashRecoveryGolden(t *testing.T) {
	groups, gpus, cap := crashTrace(t)
	full := runUninterrupted(t, groups, gpus, cap)
	testutil.CheckGolden(t, "crash-recovery-preemption-storm.golden.json", marshalCrashSteps(t, full))
}

// TestCrashRecoveryContinuation is the recovery acceptance: kill at a step
// boundary, recover on the same dir, and the remaining steps' wire-encoded
// plans, ledger versions, and lease tables byte-equal the uninterrupted
// golden's tail — at workers=1 and workers=8.
func TestCrashRecoveryContinuation(t *testing.T) {
	groups, gpus, cap := crashTrace(t)
	full := runUninterrupted(t, groups, gpus, cap)
	crashAt := len(groups) / 2
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "state")
			// Incarnation 1: durable from birth, dies after step crashAt-1.
			store, recovered, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if recovered != nil {
				t.Fatalf("fresh dir recovered state: %+v", recovered)
			}
			svc := newCrashService(workers, cap)
			if err := store.Rotate(svc.PersistState()); err != nil {
				t.Fatal(err)
			}
			svc.SetRecorder(store)
			openCrashJobs(t, svc, gpus)
			head := make([]crashStep, 0, crashAt)
			for _, g := range groups[:crashAt] {
				head = append(head, driveGroup(t, svc, g))
			}
			// Journaling must not perturb the replay (and at workers=8 this
			// is also the worker-determinism check against the baseline).
			if got, want := marshalCrashSteps(t, head), marshalCrashSteps(t, full[:crashAt]); !bytes.Equal(got, want) {
				t.Fatalf("journaling changed the replay head:\n--- durable ---\n%s\n--- baseline ---\n%s", got, want)
			}
			if err := store.Err(); err != nil {
				t.Fatal(err)
			}
			// Kill -9: close the journal fd without a final snapshot.
			store.Close()

			// Incarnation 2: recover. No fleet config — the journal carries it.
			store2, rec2, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if rec2 == nil {
				t.Fatal("no recovered state after crash")
			}
			if rec2.RecordsReplayed == 0 {
				t.Error("recovery replayed zero records after a crash")
			}
			if want := full[crashAt-1].Version; rec2.LedgerVersion != want {
				t.Errorf("recovered ledger version = %d, want %d", rec2.LedgerVersion, want)
			}
			svc2 := NewService(ServiceConfig{Workers: workers, MaxConcurrent: 4})
			if err := svc2.Restore(rec2); err != nil {
				t.Fatal(err)
			}
			if err := store2.Rotate(svc2.PersistState()); err != nil {
				t.Fatal(err)
			}
			svc2.SetRecorder(store2)
			tail := make([]crashStep, 0, len(groups)-crashAt)
			for _, g := range groups[crashAt:] {
				tail = append(tail, driveGroup(t, svc2, g))
			}
			got, want := marshalCrashSteps(t, tail), marshalCrashSteps(t, full[crashAt:])
			if !bytes.Equal(got, want) {
				t.Errorf("recovered continuation diverged from the uninterrupted replay:\n--- recovered ---\n%s\n--- uninterrupted ---\n%s", got, want)
			}
			// Graceful exit: final snapshot, so a third boot replays nothing.
			if err := store2.Rotate(svc2.PersistState()); err != nil {
				t.Fatal(err)
			}
			if err := store2.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec3, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			if rec3 == nil || rec3.RecordsReplayed != 0 {
				t.Errorf("clean restart recovery = %+v, want zero records", rec3)
			}
		})
	}
}

// TestCrashRecoveryMidStep crashes inside a step — after its availability
// events applied (and journaled) but before the rebalance pass replanned
// the leases they broke. Recovery restores the ledger at that exact
// mid-step version; the first rebalance then installs the same leases the
// uninterrupted run did, and everything after stays on the golden
// trajectory.
func TestCrashRecoveryMidStep(t *testing.T) {
	groups, gpus, cap := crashTrace(t)
	full := runUninterrupted(t, groups, gpus, cap)
	k := len(groups) / 2
	dir := filepath.Join(t.TempDir(), "state")
	store, _, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	svc := newCrashService(1, cap)
	if err := store.Rotate(svc.PersistState()); err != nil {
		t.Fatal(err)
	}
	svc.SetRecorder(store)
	openCrashJobs(t, svc, gpus)
	for _, g := range groups[:k] {
		driveGroup(t, svc, g)
	}
	// Step k dies halfway: events in, rebalance never runs.
	for _, ev := range groups[k] {
		if _, err := svc.FleetEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Err(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2, rec2, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == nil {
		t.Fatal("no recovered state after mid-step crash")
	}
	svc2 := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 4})
	if err := svc2.Restore(rec2); err != nil {
		t.Fatal(err)
	}
	if err := store2.Rotate(svc2.PersistState()); err != nil {
		t.Fatal(err)
	}
	svc2.SetRecorder(store2)
	defer store2.Close()
	// Resume step k: only the rebalance remains. Its broken list happened
	// before the crash, so blank it on the golden side too.
	rsteps, err := svc2.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc2.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	resumed := crashStep{AtSeconds: groups[k][0].At.Seconds(), Events: len(groups[k]),
		Rebalance: rsteps, Version: st.Version, Leases: st.Leases}
	wantK := full[k]
	wantK.Broken = nil
	if got, want := marshalCrashSteps(t, []crashStep{resumed}), marshalCrashSteps(t, []crashStep{wantK}); !bytes.Equal(got, want) {
		t.Errorf("resumed step %d diverged:\n--- recovered ---\n%s\n--- uninterrupted ---\n%s", k, got, want)
	}
	tail := make([]crashStep, 0, len(groups)-k-1)
	for _, g := range groups[k+1:] {
		tail = append(tail, driveGroup(t, svc2, g))
	}
	got, want := marshalCrashSteps(t, tail), marshalCrashSteps(t, full[k+1:])
	if !bytes.Equal(got, want) {
		t.Errorf("post-resume steps diverged:\n--- recovered ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
}
