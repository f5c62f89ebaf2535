package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

var (
	zoneA = cluster.GCPZone("us-central1", 'a')
	zoneB = cluster.GCPZone("us-central1", 'b')
)

// flatPlan builds a one-stage plan of n replicas of tp GPUs each in z.
func flatPlan(z core.Zone, g core.GPUType, n, tp int) core.Plan {
	reps := make([]core.StageReplica, n)
	for i := range reps {
		reps[i] = core.StageReplica{GPU: g, TP: tp, Zone: z}
	}
	return core.Plan{MicroBatchSize: 1, Stages: []core.StagePlan{
		{FirstLayer: 0, NumLayers: 24, Replicas: reps},
	}}
}

func testModel(name string) model.Config {
	return model.Config{Name: name, Hidden: 512, Layers: 24, Heads: 8,
		Vocab: 32000, SeqLen: 1024, GlobalBatch: 64}
}

// testState builds a canonical two-job state with a live fleet.
func testState(t testing.TB) *State {
	t.Helper()
	led := fleet.NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneB, core.V100, 8))
	led.SetJobCap(8)
	if _, err := led.Install("alpha", 2, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := led.Install("beta", 1, flatPlan(zoneB, core.V100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	alphaPlan := PlanFrom(flatPlan(zoneA, core.A100, 2, 4))
	cons := wire.FromConstraints(core.Constraints{MaxIterTime: 2.5})
	return &State{
		Jobs: []JobState{
			{Name: "alpha", Model: wire.FromModel(testModel("alpha-m")), GPUs: []string{string(core.A100)},
				Priority: 2, LastPlan: &alphaPlan, LastObjective: "max-throughput", LastConstraints: &cons},
			{Name: "beta", Model: wire.FromModel(testModel("beta-m")), GPUs: []string{string(core.V100)}, Priority: 1},
		},
		Fleet:   FleetStateFrom(led.Snapshot()),
		LRUKeys: []string{"alpha-m|A100", "beta-m|V100"},
	}
}

// TestSnapshotRoundTripDeterminism: encode∘decode is the identity and equal
// states encode to identical bytes.
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	state := testState(t)
	doc, err := EncodeSnapshot(3, state)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := EncodeSnapshot(3, state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, doc2) {
		t.Fatal("equal states encoded to different bytes")
	}
	gen, back, err := DecodeSnapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Errorf("gen = %d, want 3", gen)
	}
	if !reflect.DeepEqual(back, state) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", back, state)
	}
	doc3, err := EncodeSnapshot(3, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, doc3) {
		t.Error("re-encoding the decoded state changed bytes")
	}
}

// TestSnapshotValidate: malformed states are rejected by name on encode.
func TestSnapshotValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*State)
		want   string
	}{
		{"empty name", func(s *State) { s.Jobs[0].Name = "" }, "empty name"},
		{"duplicate job", func(s *State) { s.Jobs[1] = s.Jobs[0] }, "twice"},
		{"no gpus", func(s *State) { s.Jobs[0].GPUs = nil }, "no GPU types"},
		{"out of order", func(s *State) { s.Jobs[0], s.Jobs[1] = s.Jobs[1], s.Jobs[0] }, "out of order"},
		{"partial triple", func(s *State) { s.Jobs[0].LastObjective = "" }, "partial last-plan triple"},
		{"orphan lease", func(s *State) { s.Fleet.Leases[0].Job = "ghost" }, "unknown job"},
	}
	for _, tc := range cases {
		s := testState(t)
		tc.mutate(s)
		if _, err := EncodeSnapshot(1, s); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// driveStore rotates an initial empty state into st and journals a canonical
// op sequence (open jobs, set fleet, installs, a cap change, an availability
// event, a plan record, a close), returning the service-level mirror of the
// final state.
func driveStore(t testing.TB, st *Store) *State {
	t.Helper()
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	st.RecordOpenJob("alpha", testModel("alpha-m"), []core.GPUType{core.A100}, 2)
	st.RecordOpenJob("beta", testModel("beta-m"), []core.GPUType{core.V100}, 1)
	st.RecordOpenJob("gamma", testModel("gamma-m"), []core.GPUType{core.A100}, 0)

	led := fleet.NewLedger(cluster.NewPool().Set(zoneA, core.A100, 16).Set(zoneB, core.V100, 8))
	led.SetJobCap(12)
	st.RecordSetFleet(led.Snapshot())
	led.SetObserver(st.RecordLedgerOp)

	if _, err := led.Install("alpha", 2, flatPlan(zoneA, core.A100, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := led.Install("beta", 1, flatPlan(zoneB, core.V100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := led.Install("gamma", 0, flatPlan(zoneA, core.A100, 1, 4)); err != nil {
		t.Fatal(err)
	}
	st.RecordJobPlan("alpha", flatPlan(zoneA, core.A100, 2, 4), core.MaxThroughput, core.Constraints{MaxIterTime: 2.5})
	led.SetJobCap(8)
	// Shrinks zoneA: gamma (lowest priority) is evicted inside this op.
	led.Apply(trace.Event{Zone: zoneA, GPU: core.A100, Delta: -4})
	if !led.Release("gamma") {
		// gamma's lease may already be gone to the eviction; Release of a
		// missing lease emits nothing, so replay stays consistent either way.
		t.Log("gamma already evicted")
	}
	st.RecordCloseJob("gamma")
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	alphaPlan := PlanFrom(flatPlan(zoneA, core.A100, 2, 4))
	cons := wire.FromConstraints(core.Constraints{MaxIterTime: 2.5})
	return &State{
		Jobs: []JobState{
			{Name: "alpha", Model: wire.FromModel(testModel("alpha-m")), GPUs: []string{string(core.A100)},
				Priority: 2, LastPlan: &alphaPlan, LastObjective: "max-throughput", LastConstraints: &cons},
			{Name: "beta", Model: wire.FromModel(testModel("beta-m")), GPUs: []string{string(core.V100)}, Priority: 1},
		},
		Fleet: FleetStateFrom(led.Snapshot()),
	}
}

// TestStoreRecoverJournal: a crash (no final Rotate) recovers the journaled
// state exactly, and the rotation after recovery leaves a clean generation
// that replays zero records.
func TestStoreRecoverJournal(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := Open(dir, Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	want := driveStore(t, st)
	// Simulated kill -9: no Rotate, no Close.

	st2, rec2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == nil {
		t.Fatal("no state recovered")
	}
	if rec2.SnapshotGen != 1 || rec2.RecordsReplayed == 0 || rec2.TailBytesDropped != 0 {
		t.Errorf("recovery shape: %+v", rec2)
	}
	if !reflect.DeepEqual(rec2.State, want) {
		t.Errorf("recovered state diverged:\n got %+v\nwant %+v", rec2.State, want)
	}
	if rec2.LedgerVersion != want.Fleet.Version {
		t.Errorf("ledger version = %d, want %d", rec2.LedgerVersion, want.Fleet.Version)
	}

	// Graceful path: rotate the recovered state, then reopen — zero records,
	// superseded generation deleted.
	if err := st2.Rotate(rec2.State); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(1))); !os.IsNotExist(err) {
		t.Error("superseded snapshot-1 still present")
	}
	if _, err := os.Stat(filepath.Join(dir, journalName(1))); !os.IsNotExist(err) {
		t.Error("superseded journal-1 still present")
	}
	_, rec3, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec3 == nil || rec3.RecordsReplayed != 0 || rec3.SnapshotGen != 2 {
		t.Fatalf("clean reopen: %+v", rec3)
	}
	if !reflect.DeepEqual(rec3.State, want) {
		t.Errorf("clean reopen state diverged:\n got %+v\nwant %+v", rec3.State, want)
	}
}

// TestStoreTornTail: truncating or corrupting the journal tail drops only
// the damaged suffix; the intact prefix still replays.
func TestStoreTornTail(t *testing.T) {
	build := func(t *testing.T) (string, []byte) {
		dir := t.TempDir()
		st, _, err := Open(dir, Config{Fsync: FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		driveStore(t, st)
		st.Close()
		raw, err := os.ReadFile(filepath.Join(dir, journalName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return dir, raw
	}

	t.Run("truncated", func(t *testing.T) {
		dir, raw := build(t)
		if err := os.WriteFile(filepath.Join(dir, journalName(1)), raw[:len(raw)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.TailBytesDropped == 0 {
			t.Fatalf("no tail reported: %+v", rec)
		}
		full, _, _ := decodeJournal(raw)
		if rec.RecordsReplayed != len(full)-1 {
			t.Errorf("replayed %d records, want %d (last torn off)", rec.RecordsReplayed, len(full)-1)
		}
	})

	t.Run("corrupt byte", func(t *testing.T) {
		dir, raw := build(t)
		bad := append([]byte(nil), raw...)
		bad[len(bad)-3] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, journalName(1)), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.TailBytesDropped == 0 {
			t.Fatalf("no tail reported: %+v", rec)
		}
	})

	t.Run("missing journal", func(t *testing.T) {
		dir, _ := build(t)
		if err := os.Remove(filepath.Join(dir, journalName(1))); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.RecordsReplayed != 0 {
			t.Fatalf("snapshot-only recovery: %+v", rec)
		}
	})
}

// TestStoreCorruptSnapshotFallback: a corrupt newest snapshot falls back to
// the previous valid generation, and the next Rotate skips past the corrupt
// generation number.
func TestStoreCorruptSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := driveStore(t, st)
	if err := st.Rotate(want); err != nil { // gen 2, clean
		t.Fatal(err)
	}
	st.Close()
	// Fake a corrupt gen-3 snapshot (e.g. torn disk after a partial write
	// that still got renamed by a buggy kernel — recovery must not trust it).
	if err := os.WriteFile(filepath.Join(dir, snapshotName(3)), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.SnapshotGen != 2 || rec.SnapshotsSkipped != 1 {
		t.Fatalf("fallback recovery: %+v", rec)
	}
	if !reflect.DeepEqual(rec.State, want) {
		t.Error("fallback state diverged")
	}
	if err := st2.Rotate(rec.State); err != nil {
		t.Fatal(err)
	}
	if got := st2.gen; got != 4 {
		t.Errorf("post-fallback rotation gen = %d, want 4 (past the corrupt 3)", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName(3))); !os.IsNotExist(err) {
		t.Error("corrupt snapshot-3 not cleaned up")
	}
}

// TestStoreMisuse: records before the first Rotate poison the journal with
// a sticky error; a journal with no snapshot refuses recovery; a foreign
// file in the dir is ignored.
func TestStoreMisuse(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st.RecordCloseJob("x")
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "before the first Rotate") {
		t.Errorf("pre-rotate record err = %v", err)
	}
	// Rotate clears the sticky error: the snapshot supersedes the lost record.
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Errorf("post-rotate sticky err = %v", err)
	}
	st.Close()

	orphan := t.TempDir()
	if err := os.WriteFile(filepath.Join(orphan, journalName(5)), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(orphan, Config{}); err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Errorf("journal-without-snapshot err = %v", err)
	}

	foreign := t.TempDir()
	for _, name := range []string{"README", "snapshot-x.json", "snapshot-0000000000000009.json.tmp"} {
		if err := os.WriteFile(filepath.Join(foreign, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, rec, err := Open(foreign, Config{}); err != nil || rec != nil {
		t.Errorf("foreign files: rec=%+v err=%v", rec, err)
	}

	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}

// TestJournalVersionAssert: a record whose post-op ledger version contradicts
// the snapshot aborts recovery loudly instead of producing a wrong state.
func TestJournalVersionAssert(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	led := fleet.NewLedger(cluster.NewPool().Set(zoneA, core.A100, 8))
	st.RecordSetFleet(led.Snapshot())
	st.RecordLedgerOp(fleet.Op{Kind: fleet.OpInstall, Job: "a", Priority: 1,
		Plan: flatPlan(zoneA, core.A100, 1, 4), Version: 99})
	st.Close()
	if _, _, err := Open(dir, Config{}); err == nil || !strings.Contains(err.Error(), "does not match snapshot") {
		t.Errorf("version-mismatch err = %v", err)
	}
}

// TestSnapshotRejectsByName: unknown format versions, kinds, and fields are
// rejected with errors that name the problem.
func TestSnapshotRejectsByName(t *testing.T) {
	doc, err := EncodeSnapshot(1, testState(t))
	if err != nil {
		t.Fatal(err)
	}

	futureV := bytes.Replace(doc, []byte(`"v": 1`), []byte(`"v": 99`), 1)
	if _, _, err := DecodeSnapshot(futureV); err == nil || !strings.Contains(err.Error(), "99") {
		t.Errorf("future version err = %v", err)
	}
	wrongKind := bytes.Replace(doc, []byte(`"kind": "snapshot"`), []byte(`"kind": "plan"`), 1)
	if _, _, err := DecodeSnapshot(wrongKind); err == nil || !strings.Contains(err.Error(), `"plan"`) {
		t.Errorf("wrong kind err = %v", err)
	}
	unknownField := bytes.Replace(doc, []byte(`"gen": 1`), []byte(`"gen": 1, "surprise": true`), 1)
	if _, _, err := DecodeSnapshot(unknownField); err == nil || !strings.Contains(err.Error(), "surprise") {
		t.Errorf("unknown field err = %v", err)
	}

	// Journal records hold the same line.
	frame, err := encodeRecord(Record{Seq: 1, Op: OpCloseJob, Job: "a"})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[8:]
	for _, tc := range []struct {
		name, old, new, want string
	}{
		{"future version", `"v":1`, `"v":7`, "7"},
		{"wrong kind", `"kind":"journal"`, `"kind":"trace"`, `"trace"`},
		{"unknown field", `"op":"close-job"`, `"op":"close-job","extra":1`, "extra"},
		{"unknown op", `"op":"close-job"`, `"op":"explode-job"`, "explode-job"},
		// A body this build cannot parse still names the version or kind.
		{"future version and field", `"v":1,"kind":"journal","body":{`, `"v":7,"kind":"journal","body":{"extra":1,`, "7"},
		{"wrong kind and field", `"kind":"journal","body":{`, `"kind":"trace","body":{"extra":1,`, `"trace"`},
	} {
		mut := bytes.Replace(payload, []byte(tc.old), []byte(tc.new), 1)
		if _, _, err := decodeJournal(reframe(mut)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Sanity: the original frame still decodes.
	recs, tail, err := decodeJournal(frame)
	if err != nil || tail != 0 || len(recs) != 1 {
		t.Fatalf("pristine frame: recs=%d tail=%d err=%v", len(recs), tail, err)
	}
}

// TestJournalSequenceBreak: a checksummed record with the wrong sequence
// number ends replay at the intact prefix (frames from another generation
// or a lost middle record cannot be trusted).
func TestJournalSequenceBreak(t *testing.T) {
	f1, err := encodeRecord(Record{Seq: 1, Op: OpCloseJob, Job: "a"})
	if err != nil {
		t.Fatal(err)
	}
	f3, err := encodeRecord(Record{Seq: 3, Op: OpCloseJob, Job: "b"})
	if err != nil {
		t.Fatal(err)
	}
	img := append(append([]byte(nil), f1...), f3...)
	recs, tail, err := decodeJournal(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || tail != len(f3) {
		t.Errorf("recs=%d tail=%d, want 1 record and %d tail bytes", len(recs), tail, len(f3))
	}
}

// checksum mirrors the framing CRC for test reframing.
func checksum(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

// reframe wraps a journal payload in a frame with a valid length and CRC.
func reframe(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], checksum(payload))
	copy(out[8:], payload)
	return out
}

// TestRecordEncodingOmitsZeroFields: journal records stay minimal — a
// close-job record carries no model/plan/fleet baggage.
func TestRecordEncodingOmitsZeroFields(t *testing.T) {
	frame, err := encodeRecord(Record{Seq: 1, Op: OpCloseJob, Job: "a"})
	if err != nil {
		t.Fatal(err)
	}
	var env envelope[json.RawMessage]
	if err := json.Unmarshal(frame[8:], &env); err != nil {
		t.Fatal(err)
	}
	if got, want := string(env.Body), `{"seq":1,"op":"close-job","job":"a"}`; got != want {
		t.Errorf("close-job body = %s, want %s", got, want)
	}
}

// flakyJournal fails the Nth write (1-based) after letting tear bytes
// through, then every later write — the shape chaos injects through the
// Config.WrapJournal seam.
type flakyJournal struct {
	JournalFile
	writes int
	failAt int
	tear   int
}

func (f *flakyJournal) Write(p []byte) (int, error) {
	f.writes++
	if f.writes >= f.failAt {
		n := 0
		if f.tear > 0 && f.tear < len(p) && f.writes == f.failAt {
			n, _ = f.JournalFile.Write(p[:f.tear])
		}
		return n, errors.New("injected append failure")
	}
	return f.JournalFile.Write(p)
}

// TestWrapJournalFaultWindow: a failed append through the WrapJournal seam
// poisons the store stickily, the torn frame it left is truncated by
// recovery (only intact records replay), and a Rotate — whose fresh
// snapshot supersedes the broken journal — clears the poison.
func TestWrapJournalFaultWindow(t *testing.T) {
	dir := t.TempDir()
	var flaky *flakyJournal
	cfg := Config{Fsync: FsyncNone, WrapJournal: func(gen uint64, f JournalFile) JournalFile {
		if gen == 1 {
			flaky = &flakyJournal{JournalFile: f, failAt: 2, tear: 5}
			return flaky
		}
		return f
	}}
	st, _, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	st.RecordOpenJob("alpha", testModel("alpha-m"), []core.GPUType{core.A100}, 2)
	if err := st.Err(); err != nil {
		t.Fatalf("healthy append poisoned the store: %v", err)
	}
	// Append 2 fails mid-frame: sticky error, torn bytes on disk, and the
	// record — plus everything after it — is dropped, not misordered.
	st.RecordOpenJob("beta", testModel("beta-m"), []core.GPUType{core.V100}, 1)
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "injected append failure") {
		t.Fatalf("Err() = %v, want injected append failure", err)
	}
	st.RecordOpenJob("gamma", testModel("gamma-m"), []core.GPUType{core.A100}, 0)
	if flaky.writes != 2 {
		t.Fatalf("poisoned store touched the file again: %d writes", flaky.writes)
	}

	// Crash now: recovery truncates the torn frame and replays only alpha.
	_, rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.RecordsReplayed != 1 || rec.TailBytesDropped != 5 {
		t.Fatalf("recovery shape %+v, want 1 record + 5 torn bytes", rec)
	}
	if len(rec.State.Jobs) != 1 || rec.State.Jobs[0].Name != "alpha" {
		t.Fatalf("recovered jobs %+v, want just alpha", rec.State.Jobs)
	}

	// The operator heal: Rotate a fresh snapshot over the live (in-memory)
	// state; the poison clears and journaling resumes on generation 2.
	if err := st.Rotate(rec.State); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Rotate left the store poisoned: %v", err)
	}
	st.RecordOpenJob("delta", testModel("delta-m"), []core.GPUType{core.A100}, 1)
	if err := st.Err(); err != nil {
		t.Fatalf("append after heal failed: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2 == nil || rec2.RecordsReplayed != 1 || len(rec2.State.Jobs) != 2 {
		t.Fatalf("post-heal recovery %+v", rec2)
	}
}
