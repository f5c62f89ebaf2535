package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// fileSize is the on-disk size of one data-dir file.
func fileSize(t *testing.T, dir, name string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRotateDueBound: a journal is due exactly when its bytes on disk reach
// max(RotateRatio × the snapshot's bytes on disk, RotateMinBytes) — the
// floor binds under a small snapshot, the ratio under a large one — and a
// rotation resets it.
func TestRotateDueBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state *State
	}{
		{"floor", &State{}},
		{"ratio", &State{LRUKeys: []string{strings.Repeat("k", 200<<10)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, _, err := Open(dir, Config{Fsync: FsyncNone})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if st.RotateDue() {
				t.Fatal("a store with no journal open is due")
			}
			if err := st.Rotate(tc.state); err != nil {
				t.Fatal(err)
			}
			bound := max(RotateRatio*fileSize(t, dir, snapshotName(1)), RotateMinBytes)
			if tc.name == "ratio" && bound == RotateMinBytes {
				t.Fatalf("snapshot of %d bytes leaves the floor binding", fileSize(t, dir, snapshotName(1)))
			}
			for due := false; !due; {
				st.RecordOpenJob("pad", testModel("pad-m"), []core.GPUType{core.A100}, 0)
				st.RecordCloseJob("pad")
				journal := fileSize(t, dir, journalName(1))
				if due = st.RotateDue(); due != (journal >= bound) {
					t.Fatalf("RotateDue() = %v at %d journal bytes, bound %d", due, journal, bound)
				}
			}
			if err := st.Rotate(tc.state); err != nil {
				t.Fatal(err)
			}
			if st.RotateDue() {
				t.Error("a freshly rotated journal is due")
			}
		})
	}
}

// TestRotateDuePoisoned: a poisoned journal is never due — rotating it is
// the heal path, not the bound's business — and neither is a store whose
// Rotate could not open a journal; its next append poisons it.
func TestRotateDuePoisoned(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	for st.journalBytes < RotateMinBytes {
		st.RecordCloseJob(strings.Repeat("x", 4<<10))
	}
	st.err = os.ErrClosed
	if st.RotateDue() {
		t.Error("a poisoned journal is due")
	}
	st.err = nil
	// Occupy the next journal's name: Rotate publishes snapshot 2, then
	// fails to open journal 2.
	if err := os.Mkdir(filepath.Join(dir, journalName(2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(&State{}); err == nil {
		t.Fatal("Rotate over an occupied journal name succeeded")
	}
	if st.RotateDue() {
		t.Error("a store whose journal failed to open is due")
	}
	st.RecordCloseJob("lost")
	if st.Err() == nil {
		t.Error("an append with no journal open left the store healthy")
	}
}

// TestCrashMidRotation: kill -9 at either window inside Rotate recovers the
// live state. Between the snapshot rename and the journal open the dir holds
// snapshot N+1, generation N, and no journal N+1: the new snapshot alone is
// the state, so zero records replay. Between the journal open and the
// removal of the superseded generation both generations are whole, and the
// newest wins.
func TestCrashMidRotation(t *testing.T) {
	// build journals the canonical op sequence into generation 1 and
	// returns the live state and generation 1's file images.
	build := func(t *testing.T) (dir string, st *Store, want *State, gen1 map[string][]byte) {
		t.Helper()
		dir = t.TempDir()
		st, _, err := Open(dir, Config{Fsync: FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		want = driveStore(t, st)
		gen1 = map[string][]byte{}
		for _, name := range []string{snapshotName(1), journalName(1)} {
			if gen1[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		return dir, st, want, gen1
	}
	recovers := func(t *testing.T, dir string, want *State) {
		t.Helper()
		_, rec, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.SnapshotGen != 2 || rec.RecordsReplayed != 0 || rec.SnapshotsSkipped != 0 {
			t.Fatalf("recovery = %+v, want snapshot 2 and no records", rec)
		}
		if !reflect.DeepEqual(rec.State, want) {
			t.Errorf("recovered state diverged:\n got %+v\nwant %+v", rec.State, want)
		}
	}

	t.Run("after snapshot rename", func(t *testing.T) {
		dir, st, want, gen1 := build(t)
		// Rotate publishes snapshot 2, then fails where a kill would land.
		if err := os.Mkdir(filepath.Join(dir, journalName(2)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := st.Rotate(want); err == nil {
			t.Fatal("Rotate over an occupied journal name succeeded")
		}
		if err := os.Remove(filepath.Join(dir, journalName(2))); err != nil {
			t.Fatal(err)
		}
		for name := range gen1 {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Fatalf("generation 1 damaged before the journal open: %v", err)
			}
		}
		recovers(t, dir, want)
	})

	t.Run("before superseded removal", func(t *testing.T) {
		dir, st, want, gen1 := build(t)
		if err := st.Rotate(want); err != nil {
			t.Fatal(err)
		}
		// Put generation 1 back as it was before Rotate deleted it.
		for name, data := range gen1 {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if got := fileSize(t, dir, journalName(2)); got != 0 {
			t.Fatalf("journal 2 holds %d bytes, want a freshly opened one", got)
		}
		recovers(t, dir, want)
	})
}
