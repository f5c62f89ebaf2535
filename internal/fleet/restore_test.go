package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestObserverOrderAndReplay: the observer sees every version-bumping
// mutation in exact version order, and replaying those ops onto a ledger
// restored from a snapshot reproduces the lease table and version
// trajectory bit for bit — the contract the persist journal is built on.
func TestObserverOrderAndReplay(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16))
	base := l.Snapshot()

	var ops []Op
	l.SetObserver(func(op Op) { ops = append(ops, op) })

	if _, err := l.Install("a", 2, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Install("b", 1, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	l.SetJobCap(8)
	// Shrink the fleet: evicts b (lowest priority) inside the same Apply op.
	l.Apply(trace.Event{Zone: zoneA, GPU: core.A100, Delta: -8})
	if !l.Release("a") {
		t.Fatal("Release(a) = false")
	}
	// A failed grant must emit nothing.
	if err := install(l, "c", 0, flatPlan(zoneA, core.A100, 9, 4)); err == nil {
		t.Fatal("oversized acquire must fail")
	}

	wantKinds := []OpKind{OpInstall, OpInstall, OpSetCap, OpApply, OpRelease}
	if len(ops) != len(wantKinds) {
		t.Fatalf("observer saw %d ops, want %d: %+v", len(ops), len(wantKinds), ops)
	}
	for i, op := range ops {
		if op.Kind != wantKinds[i] {
			t.Errorf("op %d kind = %v, want %v", i, op.Kind, wantKinds[i])
		}
		if op.Version != base.Version+uint64(i)+1 {
			t.Errorf("op %d version = %d, want contiguous %d", i, op.Version, base.Version+uint64(i)+1)
		}
	}

	// Replay the ops onto a ledger restored from the pre-mutation snapshot.
	restored, err := FromSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		switch op.Kind {
		case OpInstall:
			if _, err := restored.Install(op.Job, op.Priority, op.Plan); err != nil {
				t.Fatalf("replay install %q: %v", op.Job, err)
			}
		case OpRelease:
			if !restored.Release(op.Job) {
				t.Fatalf("replay release %q dropped nothing", op.Job)
			}
		case OpApply:
			restored.Apply(op.Event)
		case OpSetCap:
			restored.SetJobCap(op.JobCap)
		}
		if got := restored.Version(); got != op.Version {
			t.Fatalf("replay diverged: version %d after %v, want %d", got, op.Kind, op.Version)
		}
	}
	if got, want := restored.Snapshot(), l.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed snapshot diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestObserverSilentOnFailedMutations: every mutation error path leaves
// the version untouched and emits no op. The persist journal records ops
// verbatim, so a failed mutation leaking an op would replay a grant that
// never happened and fork recovery from the live ledger.
func TestObserverSilentOnFailedMutations(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 8))
	l.SetJobCap(6)
	// a holds 4 of 8 GPUs: 4 free, per-job cap 6.
	if err := install(l, "a", 1, flatPlan(zoneA, core.A100, 1, 4)); err != nil {
		t.Fatal(err)
	}

	var ops []Op
	l.SetObserver(func(op Op) { ops = append(ops, op) })
	ver := l.Version()

	fits := flatPlan(zoneA, core.A100, 1, 2)
	cases := []struct {
		name string
		call func() error
	}{
		{"install empty job", func() error { return install(l, "", 1, fits) }},
		{"install empty plan", func() error { return install(l, "b", 1, core.Plan{}) }},
		{"install over job cap", func() error { return install(l, "b", 1, flatPlan(zoneA, core.A100, 1, 7)) }},
		{"install conflict", func() error { return install(l, "b", 1, flatPlan(zoneA, core.A100, 1, 5)) }},
		{"re-install conflict", func() error { return install(l, "a", 1, flatPlan(zoneA, core.A100, 1, 5+4)) }},
		{"release unheld", func() error {
			if l.Release("ghost") {
				return fmt.Errorf("Release(ghost) = true")
			}
			return nil
		}},
	}
	for _, tc := range cases {
		switch err := tc.call(); tc.name {
		case "release unheld":
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		default:
			if err == nil {
				t.Errorf("%s: mutation succeeded, want error", tc.name)
			}
		}
		if len(ops) != 0 {
			t.Fatalf("%s: observer saw %+v, want nothing", tc.name, ops)
		}
		if got := l.Version(); got != ver {
			t.Fatalf("%s: version %d, want unchanged %d", tc.name, got, ver)
		}
	}
	// The ledger is still live after the gauntlet: the next grant emits
	// exactly one op at the next contiguous version.
	if err := install(l, "b", 1, fits); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != OpInstall || ops[0].Version != ver+1 {
		t.Fatalf("post-gauntlet grant ops = %+v, want one OpInstall at version %d", ops, ver+1)
	}
}

// TestOpKindNames pins the names journal records carry for each op kind.
func TestOpKindNames(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpInstall: "lease-install", OpRelease: "lease-release",
		OpApply: "fleet-event", OpSetCap: "set-cap", OpKind(9): "OpKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestFromSnapshotRoundTrip: Snapshot → FromSnapshot → Snapshot is the
// identity, including version, cap, and the Acquired version of each lease.
func TestFromSnapshotRoundTrip(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneB, core.V100, 8))
	l.SetJobCap(8)
	if _, err := l.Install("a", 2, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Install("b", 1, flatPlan(zoneB, core.V100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	want := l.Snapshot()
	restored, err := FromSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	// The restored ledger is live: the next grant gets version Version+1.
	if _, err := restored.Install("c", 0, flatPlan(zoneA, core.A100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if got := restored.Version(); got != want.Version+1 {
		t.Errorf("post-restore version = %d, want %d", got, want.Version+1)
	}
}

// TestFromSnapshotRejects: corrupted snapshots fail loudly by name.
func TestFromSnapshotRejects(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 8))
	if _, err := l.Install("a", 1, flatPlan(zoneA, core.A100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	ok := l.Snapshot()
	cases := []struct {
		name   string
		mutate func(*Snapshot)
		want   string
	}{
		{"nil capacity", func(s *Snapshot) { s.Capacity = nil }, "no capacity"},
		{"empty job", func(s *Snapshot) { s.Leases[0].Job = "" }, "empty job"},
		{"duplicate lease", func(s *Snapshot) { s.Leases = append(s.Leases, s.Leases[0]) }, "two leases"},
		{"future acquire", func(s *Snapshot) { s.Leases[0].Acquired = s.Version + 1 }, "after snapshot version"},
		{"over cap", func(s *Snapshot) { s.JobCap = 1 }, "over the per-job cap"},
		{"over capacity", func(s *Snapshot) { s.Capacity = cluster.NewPool().Set(zoneA, core.A100, 1) }, "invariant"},
	}
	for _, tc := range cases {
		s := ok
		s.Leases = append([]Lease(nil), ok.Leases...)
		tc.mutate(&s)
		if _, err := FromSnapshot(s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestWithSnapshotHoldsTheLock: WithSnapshot hands fn the same state
// Snapshot returns, and a mutation racing fn lands — and reaches the
// observer — only after fn returns, so a journal rotated inside fn never
// misses an op.
func TestWithSnapshotHoldsTheLock(t *testing.T) {
	l := NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16))
	if _, err := l.Install("a", 1, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	var ops []uint64
	l.SetObserver(func(op Op) { ops = append(ops, op.Version) })
	want := l.Snapshot()
	done := make(chan struct{})
	l.WithSnapshot(func(s Snapshot) {
		if !reflect.DeepEqual(s, want) {
			t.Errorf("WithSnapshot saw %+v, want %+v", s, want)
		}
		go func() {
			l.Apply(trace.Event{Zone: zoneA, GPU: core.A100, Delta: 4})
			close(done)
		}()
		select {
		case <-done:
			t.Error("a mutation landed while WithSnapshot held the lock")
		case <-time.After(20 * time.Millisecond):
		}
		if len(ops) != 0 {
			t.Errorf("observer saw %v inside WithSnapshot", ops)
		}
	})
	<-done
	if len(ops) != 1 || ops[0] != want.Version+1 {
		t.Errorf("observer saw %v after WithSnapshot, want [%d]", ops, want.Version+1)
	}
}
