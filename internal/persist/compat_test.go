package persist

// On-disk compatibility: the frame bytes of every record kind are pinned,
// a journal in the older two-records-per-grant shape still recovers to the
// state it recovered to when it was written, and a stored plan that
// rematerialises is refused.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestRecordFramesGolden pins the frame of one record of each op kind,
// HTML-escaped names included, and checks the frames decode back to the
// records. Lines are "<length><crc32> <payload>", header in hex.
func TestRecordFramesGolden(t *testing.T) {
	job := "a<b>&c"
	wm := wire.FromModel(testModel("m<1>"))
	plan := PlanFrom(flatPlan(zoneA, core.A100, 2, 4))
	cons := wire.FromConstraints(core.Constraints{MinThroughput: 0.5, MaxCostPerIter: 3})
	ev := wire.FromFleetEvent(trace.Event{At: time.Minute, Zone: zoneB, GPU: core.V100, Delta: -4})
	noCap := 0
	recs := []Record{
		{Op: OpOpenJob, Job: job, Priority: 2, Model: &wm, GPUs: []string{string(core.A100)}},
		{Op: OpSetFleet, Fleet: testState(t).Fleet},
		{Op: OpInstall, Job: job, Priority: 2, Plan: &plan, Version: 4},
		{Op: OpJobPlan, Job: job, Plan: &plan, Objective: core.MinCost.String(), Constraints: &cons},
		{Op: OpEvent, Event: &ev, Version: 5},
		{Op: OpSetCap, JobCap: &noCap, Version: 6},
		{Op: OpRelease, Job: job, Version: 7},
		{Op: OpCloseJob, Job: job},
	}
	var img, golden bytes.Buffer
	for i := range recs {
		recs[i].Seq = uint64(i) + 1
		frame, err := encodeRecord(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		img.Write(frame)
		fmt.Fprintf(&golden, "%x %s\n", frame[:8], frame[8:])
	}
	testutil.CheckGolden(t, "record-frames.golden", golden.Bytes())
	back, tail, err := decodeJournal(img.Bytes())
	if err != nil || tail != 0 || !reflect.DeepEqual(back, recs) {
		t.Errorf("frames decoded to %+v (tail %d, err %v), want %+v", back, tail, err, recs)
	}
}

// TestPairedRecordJournalRecovers: testdata/paired-records is a data dir
// whose journal follows every fleet grant's lease-install with a job-plan
// of the same job — four A100 jobs through a preemption storm, one moved to
// MinCost under a throughput floor, one closed and reopened — and
// paired-records.state.json is the state recovery produced from it when it
// was written. Replay must still produce exactly that state.
func TestPairedRecordJournalRecovers(t *testing.T) {
	src := filepath.Join("testdata", "paired-records")
	dir := t.TempDir()
	for _, name := range []string{snapshotName(1), journalName(1)} {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalName(1)))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := decodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	installs := 0
	for i, rec := range recs {
		if rec.Op != OpInstall {
			continue
		}
		installs++
		if i+1 == len(recs) || recs[i+1].Op != OpJobPlan || recs[i+1].Job != rec.Job {
			t.Fatalf("record %d: lease-install of %q is not followed by its job-plan", rec.Seq, rec.Job)
		}
	}
	if installs == 0 {
		t.Fatal("fixture journal holds no lease-install")
	}

	_, rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeSnapshot(rec.SnapshotGen, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "paired-records.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered state diverged:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// failingSync is a journal file whose Sync always fails.
type failingSync struct{ JournalFile }

func (failingSync) Sync() error { return errors.New("injected sync failure") }

// TestCloseReportsFinalSync: a Close whose final journal flush fails says
// so — the last records may not be durable — and a poisoned journal still
// reports its sticky append error instead.
func TestCloseReportsFinalSync(t *testing.T) {
	cfg := Config{Fsync: FsyncAlways, WrapJournal: func(_ uint64, f JournalFile) JournalFile { return failingSync{f} }}
	st, _, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err == nil || !strings.Contains(err.Error(), "injected sync failure") {
		t.Errorf("Close = %v, want the final sync failure", err)
	}

	st, _, err = Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Rotate(&State{}); err != nil {
		t.Fatal(err)
	}
	st.RecordCloseJob("a")
	sticky := st.Err()
	if sticky == nil {
		t.Fatal("failed append sync did not poison the journal")
	}
	if err := st.Close(); err != sticky {
		t.Errorf("Close = %v, want the sticky append error %v", err, sticky)
	}
}

// TestStoredPlanRoundTrip: persist's stored plan converts back exactly,
// nil and empty stage and replica lists kept apart, and encodes one entry
// per replica whatever the rpc schema does with runs.
func TestStoredPlanRoundTrip(t *testing.T) {
	plan := flatPlan(zoneA, core.A100, 3, 2)
	plan.Stages = append(plan.Stages,
		core.StagePlan{FirstLayer: 24, NumLayers: 1},
		core.StagePlan{FirstLayer: 25, NumLayers: 1, Replicas: []core.StageReplica{}})
	for _, p := range []core.Plan{plan, {}, {Stages: []core.StagePlan{}}} {
		data, err := json.Marshal(PlanFrom(p))
		if err != nil {
			t.Fatal(err)
		}
		var back Plan
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Core(); !reflect.DeepEqual(got, p) {
			t.Errorf("stored plan round trip:\n%#v\nvs\n%#v\n%s", got, p, data)
		}
	}
	if got := len(PlanFrom(plan).Stages[0].Replicas); got != 3 {
		t.Errorf("three identical replicas stored as %d entries, want 3", got)
	}
}

// TestStoredRecomputeRefused: a stored plan keeps the "recompute" key only
// so that older files decode, and one that sets it true (a plan that
// rematerialises activations, which no build runs any more) is refused by
// name wherever a stored plan is decoded: in each plan-bearing record of a
// driven journal, in a set-fleet record's leases, and in a snapshot's last
// plan and lease table. Recovery stops instead of installing a different
// plan.
func TestStoredRecomputeRefused(t *testing.T) {
	stored, legacy := []byte(`"recompute":false`), []byte(`"recompute":true`)
	const want = `"recompute": true`
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %s", what, err, want)
		}
	}

	// Journal records, each flipped alone inside the recovered data dir.
	src := t.TempDir()
	st, _, err := Open(src, Config{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	driveStore(t, st)
	snap, err := os.ReadFile(filepath.Join(src, snapshotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(src, journalName(1)))
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for off := 0; off < len(journal); {
		end := off + 8 + int(binary.BigEndian.Uint32(journal[off:]))
		payload := journal[off+8 : end]
		if bytes.Contains(payload, stored) {
			rec, err := decodeRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			ops[rec.Op]++
			img := append(append(slices.Clip(journal[:off]), reframe(bytes.Replace(payload, stored, legacy, 1))...), journal[end:]...)
			dir := t.TempDir()
			for name, data := range map[string][]byte{snapshotName(1): snap, journalName(1): img} {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err = Open(dir, Config{})
			refused(fmt.Sprintf("record %d (%s)", rec.Seq, rec.Op), err)
		}
		off = end
	}
	if ops[OpJobPlan] == 0 || ops[OpInstall] == 0 {
		t.Fatalf("driven journal holds plans in %v, want job-plan and lease-install records", ops)
	}
	frame, err := encodeRecord(Record{Seq: 1, Op: OpSetFleet, Fleet: testState(t).Fleet})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = decodeJournal(reframe(bytes.Replace(frame[8:], stored, legacy, 1)))
	refused("set-fleet record", err)

	// Snapshots: the job's last plan and each lease, one at a time.
	doc, err := EncodeSnapshot(1, testState(t))
	if err != nil {
		t.Fatal(err)
	}
	stored, legacy = []byte(`"recompute": false`), []byte(`"recompute": true`)
	if n := bytes.Count(doc, stored); n != 3 {
		t.Fatalf("snapshot stores %d plans, want 3 (a last plan and two leases)", n)
	}
	for i, at := 0, 0; i < 3; i++ {
		at += bytes.Index(doc[at:], stored)
		mut := append(append(slices.Clip(doc[:at]), legacy...), doc[at+len(stored):]...)
		_, _, err := DecodeSnapshot(mut)
		refused(fmt.Sprintf("snapshot plan %d", i), err)
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Open(dir, Config{})
		refused(fmt.Sprintf("recovering snapshot plan %d", i), err)
		at += len(stored)
	}
	// The key holds a boolean or nothing; anything else is refused too.
	_, _, err = DecodeSnapshot(bytes.Replace(doc, stored, []byte(`"recompute": 1`), 1))
	if err == nil || !strings.Contains(err.Error(), `"recompute": 1`) {
		t.Errorf("numeric recompute flag: err = %v", err)
	}
}
