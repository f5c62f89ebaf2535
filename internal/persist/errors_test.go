package persist

// Error-path coverage: every rejection the subsystem promises — malformed
// replay records, unrecoverable dirs, oversized records, failed rotations —
// must fail loudly with the documented message, never silently corrupt.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/wire"
)

// TestReplayRejects drives replay directly with records recovery must
// refuse: each is a journal that contradicts its snapshot, and recovery has
// to stop rather than fabricate plausible state.
func TestReplayRejects(t *testing.T) {
	wm := wire.FromModel(testModel("m"))
	wp := PlanFrom(flatPlan(zoneA, core.A100, 1, 4))
	wc := wire.FromConstraints(core.Constraints{})
	noFleet := func(t testing.TB) *State {
		s := testState(t)
		s.Fleet = nil
		return s
	}
	badFleet := func(t testing.TB) *State {
		s := testState(t)
		// A lease over a job the capacity pool cannot hold: FromSnapshot
		// must refuse to build the ledger.
		s.Fleet.Capacity = wire.Pool{}
		return s
	}
	cases := []struct {
		name  string
		state func(testing.TB) *State
		rec   Record
		want  string
	}{
		{"reopen", testState, Record{Op: OpOpenJob, Job: "alpha", Model: &wm, GPUs: []string{"A100-40"}}, "reopens"},
		{"open without model", testState, Record{Op: OpOpenJob, Job: "new"}, "without a model"},
		{"close unknown", testState, Record{Op: OpCloseJob, Job: "ghost"}, "closes unknown"},
		{"plan unknown", testState, Record{Op: OpJobPlan, Job: "ghost", Plan: &wp, Objective: "max-throughput", Constraints: &wc}, "plans unknown"},
		{"partial plan triple", testState, Record{Op: OpJobPlan, Job: "alpha", Plan: &wp}, "partial plan triple"},
		{"set-fleet empty", testState, Record{Op: OpSetFleet}, "empty fleet"},
		{"set-fleet invalid", testState, Record{Op: OpSetFleet, Fleet: badFleet(t).Fleet}, "persist:"},
		{"install without ledger", noFleet, Record{Op: OpInstall, Job: "alpha", Plan: &wp}, "without a fleet ledger"},
		{"install without plan", testState, Record{Op: OpInstall, Job: "alpha"}, "without a plan"},
		{"install infeasible", testState, func() Record {
			big := PlanFrom(flatPlan(zoneA, core.A100, 4, 4))
			return Record{Op: OpInstall, Job: "beta", Plan: &big}
		}(), "record 1"},
		{"release non-holder", testState, Record{Op: OpRelease, Job: "nobody"}, "holds no lease"},
		{"event empty", testState, Record{Op: OpEvent}, "empty fleet event"},
		{"set-cap empty", testState, Record{Op: OpSetCap}, "sets no cap value"},
		{"unknown op", testState, Record{Op: "explode-job"}, "unknown op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			state := tc.state(t)
			rec := tc.rec
			rec.Seq = 1
			err := replay(state, []Record{rec})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("replay = %v, want mention of %q", err, tc.want)
			}
		})
	}

	// A snapshot whose own fleet state cannot rebuild a ledger fails before
	// any record is applied.
	if err := replay(badFleet(t), nil); err == nil {
		t.Error("replay accepted a snapshot fleet state the ledger rejects")
	}
}

// TestFleetStateLedgerError: the durable fleet shape re-validates every
// ledger invariant on restore.
func TestFleetStateLedgerError(t *testing.T) {
	s := testState(t)
	s.Fleet.Capacity = wire.Pool{} // leases now exceed capacity
	if _, err := s.Fleet.Ledger(); err == nil {
		t.Error("Ledger() accepted leases exceeding capacity")
	}
}

// TestEncodeGuards: nil states and oversized records are refused before
// they reach disk.
func TestEncodeGuards(t *testing.T) {
	if _, err := EncodeSnapshot(1, nil); err == nil || !strings.Contains(err.Error(), "nil state") {
		t.Errorf("EncodeSnapshot(nil) = %v", err)
	}
	huge := Record{Seq: 1, Op: OpCloseJob, Job: strings.Repeat("x", maxRecordBytes)}
	if _, err := encodeRecord(huge); err == nil || !strings.Contains(err.Error(), "over the") {
		t.Errorf("encodeRecord(16MiB+) = %v", err)
	}

	// Through the store the failure is sticky — and the next Rotate clears
	// it, because the fresh snapshot supersedes the poisoned journal.
	st, _, err := Open(t.TempDir(), Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	st.RecordCloseJob(strings.Repeat("x", maxRecordBytes))
	if err := st.Err(); err == nil {
		t.Fatal("oversized record did not poison the journal")
	}
	st.RecordCloseJob("small") // dropped: appends past a gap are refused
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Errorf("Rotate left the sticky error in place: %v", err)
	}
}

// TestOpenErrors: unusable data dirs fail at Open, not at first write.
func TestOpenErrors(t *testing.T) {
	if _, _, err := Open("", Config{}); err == nil || !strings.Contains(err.Error(), "empty data dir") {
		t.Errorf(`Open("") = %v`, err)
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(filepath.Join(file, "sub"), Config{}); err == nil {
		t.Error("Open under a regular file succeeded")
	}
}

// TestRecoverUnreadableFiles: a snapshot or journal that exists but cannot
// be read (here: it is a directory) fails recovery by name instead of being
// silently skipped as if absent.
func TestRecoverUnreadableFiles(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, snapshotName(1)), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Config{}); err == nil || !strings.Contains(err.Error(), "no valid snapshot") {
			t.Errorf("Open over unreadable snapshot = %v", err)
		}
	})
	t.Run("journal", func(t *testing.T) {
		dir := t.TempDir()
		doc, err := EncodeSnapshot(1, &State{})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, journalName(1)), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Config{}); err == nil || !strings.Contains(err.Error(), journalName(1)) {
			t.Errorf("Open over unreadable journal = %v", err)
		}
	})
}

// TestRotateErrors: an unencodable state or an unwritable snapshot slot
// fails Rotate without touching the live generation.
func TestRotateErrors(t *testing.T) {
	st, _, err := Open(t.TempDir(), Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Rotate(nil); err == nil || !strings.Contains(err.Error(), "nil state") {
		t.Errorf("Rotate(nil) = %v", err)
	}
	// Occupy the temp slot with a directory: writeAtomic cannot open it.
	if err := os.Mkdir(filepath.Join(st.dir, snapshotName(1)+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(&State{}); err == nil {
		t.Error("Rotate with an occupied temp slot succeeded")
	}
	if got := st.gen; got != 0 {
		t.Errorf("failed Rotate advanced the generation to %d", got)
	}
}

// TestRecordLedgerOpUnknownKind: an observer event the journal has no shape
// for poisons the store instead of writing a record replay cannot apply.
func TestRecordLedgerOpUnknownKind(t *testing.T) {
	st, _, err := Open(t.TempDir(), Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	st.RecordLedgerOp(fleet.Op{Kind: fleet.OpKind(99)})
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "unknown ledger op kind") {
		t.Errorf("Err() = %v, want unknown ledger op kind", err)
	}
}

// TestFsyncAlwaysLifecycle drives the full journal+rotate+recover cycle with
// the durable flush policy (the daemon default), exercising the fsync arms
// of append, Close, writeAtomic, and the dir syncs.
func TestFsyncAlwaysLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, recovered, err := Open(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if recovered != nil {
		t.Fatalf("fresh dir recovered %+v", recovered)
	}
	want := driveStore(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := Open(dir, Config{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec == nil || rec.RecordsReplayed == 0 {
		t.Fatalf("recovered = %+v, want a journal replay", rec)
	}
	if got, want := mustEncode(t, rec.State), mustEncode(t, want); got != want {
		t.Errorf("fsync=always recovery diverged:\n got %s\nwant %s", got, want)
	}
}

// mustEncode canonicalizes a state for comparison.
func mustEncode(t *testing.T, s *State) string {
	t.Helper()
	doc, err := EncodeSnapshot(0, s)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}
