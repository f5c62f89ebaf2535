// Package persist is the durability subsystem of the planning service: it
// gives sailor.Service a crash-consistent on-disk form so the determinism
// contract survives kill -9. Three pieces cooperate:
//
//   - Snapshots: a versioned, deterministic encoding of the whole service
//     state — open jobs (model, GPU set, priority, last deployed plan), the
//     fleet ledger (capacity, per-job cap, lease table, and the mutation
//     counter itself), and the shared-system LRU keys — written atomically
//     (temp file + rename) as a wire-style envelope {"v","kind":"snapshot"}.
//
//   - A journal: an append-only log of every state-mutating operation since
//     the last snapshot (open/close job, lease install/release, fleet
//     events, cap changes, last-plan updates), one length-prefixed CRC-32
//     record per op, fsynced per the configured policy. Ledger ops are
//     appended from inside the ledger's critical section (fleet.SetObserver),
//     so journal order is exactly ledger-version order. A fleet grant is one
//     lease-install record; a job-plan record follows only on the job's
//     first grant or an objective/constraint change.
//
//   - Recovery: Open loads the latest valid snapshot, replays the journal
//     suffix — driving a real fleet.Ledger so evictions and version bumps
//     re-derive from the same code that produced them, asserting the
//     recorded post-op version after every record — then the caller rotates:
//     a fresh snapshot of the recovered state supersedes the old generation,
//     whose files are deleted. A torn or corrupted journal tail (the record
//     being appended when the power went out) stops replay cleanly at the
//     last intact record; nothing partial is ever applied.
//
// Because admission order and plans are pure functions of the recovered
// state, a daemon restored from disk continues a half-played trace with the
// same plans and the same ledger-version trajectory as an uninterrupted run
// — the property the crash-recovery goldens in package sailor pin.
//
// A durable service also rotates whenever the journal outgrows its
// snapshot (Store.RotateDue), so replay is bounded by state, not uptime.
//
// The on-disk formats version apart from the rpc schema (FormatVersion, not
// wire.Version). Plans, the bulk of most records, are stored one entry per
// replica in persist's own Plan type, so the rpc schema's grouped plan
// encoding never reaches the disk; the smaller DTOs (models, constraints,
// pools, fleet events) are still wire's.
//
// Layout of a data dir (one generation live at a time, two only mid-rotation):
//
//	snapshot-0000000000000003.json   # state as of rotation 3
//	journal-0000000000000003.wal     # ops appended since
package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/wire"
)

// FormatVersion is the on-disk schema version of snapshot and journal
// documents (kinds kindSnapshot and kindJournal); decoding rejects every
// other version by name. Plans are stored in persist's own shape (Plan);
// records and snapshots still embed the wire DTOs of models, constraints,
// pools and fleet events, so a change to one of those shows up as a diff in
// testdata/record-frames.golden.
const FormatVersion = 1

const kindJournal, kindSnapshot = "journal", "snapshot"

// A journal is due for rotation at max(RotateRatio × its snapshot's bytes,
// RotateMinBytes): replay then costs about what loading the snapshot does,
// and a near-empty boot snapshot does not rotate every few records.
const RotateRatio, RotateMinBytes = 8, 1 << 20

// FsyncPolicy says when the journal is flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways fsyncs the journal after every appended record — an
	// acknowledged mutation survives power loss. The default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncNone never fsyncs the journal; the OS flushes on its own
	// schedule. A machine crash may lose the most recent records (a process
	// crash alone does not — writes are in the page cache).
	FsyncNone FsyncPolicy = "none"
)

// ParseFsyncPolicy resolves a policy name (the -fsync flag).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncNone:
		return FsyncPolicy(s), nil
	case "":
		return FsyncAlways, nil
	}
	return "", fmt.Errorf("persist: unknown fsync policy %q (want %q or %q)", s, FsyncAlways, FsyncNone)
}

// JournalFile is the journal's view of its backing file — the subset of
// *os.File the append path touches. Config.WrapJournal can interpose an
// implementation between the store and the real file (internal/chaos wraps
// it to inject short writes, torn frames, and sync failures).
type JournalFile interface {
	io.WriteCloser
	Sync() error
}

// Config tunes a Store. The zero value is a working default.
type Config struct {
	// Fsync is the journal flush policy ("" = FsyncAlways).
	Fsync FsyncPolicy
	// WrapJournal, when non-nil, wraps each freshly opened journal
	// generation before the store writes to it — the fault-injection seam.
	// It must return a usable file; return f unchanged to pass through.
	WrapJournal func(gen uint64, f JournalFile) JournalFile
}

// Recovered reports what Open reconstructed from a non-empty data dir.
type Recovered struct {
	// State is the service state as of the last intact journal record.
	State *State
	// SnapshotGen is the generation of the snapshot that was loaded.
	SnapshotGen uint64
	// LedgerVersion is the fleet ledger's mutation counter after replay
	// (0 when the state holds no fleet).
	LedgerVersion uint64
	// RecordsReplayed counts journal records applied on top of the snapshot.
	RecordsReplayed int
	// TailBytesDropped counts trailing journal bytes discarded as a torn or
	// corrupted tail (0 for a cleanly closed journal).
	TailBytesDropped int
	// SnapshotsSkipped counts newer snapshot generations that failed to
	// decode and were passed over for an older valid one.
	SnapshotsSkipped int
	// Duration is the wall-clock cost of load + replay.
	Duration time.Duration
}

// Store owns one data dir: it journals mutations between rotations and
// writes snapshots that supersede the journal. All methods are safe for
// concurrent use. Records appended before the first Rotate are dropped with
// a sticky error — rotate a snapshot of the initial state first, so every
// journal has a snapshot under it.
type Store struct {
	dir   string
	fsync bool
	wrap  func(gen uint64, f JournalFile) JournalFile

	mu  sync.Mutex
	gen uint64 // highest generation seen on disk or rotated to
	seq uint64 // last record sequence number appended to the open journal
	f   JournalFile
	err error // sticky: first append failure poisons the journal until the next Rotate

	snapBytes, journalBytes int64 // the current snapshot's size, and what the journal appended since
}

// Open attaches a store to dir (created if missing) and recovers whatever a
// previous incarnation left there: the latest valid snapshot plus the intact
// prefix of its journal. A fresh dir returns (store, nil, nil). The caller
// must Rotate the (possibly restored) state before mutations start, so the
// new journal has a snapshot under it.
func Open(dir string, cfg Config) (*Store, *Recovered, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("persist: empty data dir")
	}
	policy, err := ParseFsyncPolicy(string(cfg.Fsync))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	st := &Store{dir: dir, fsync: policy == FsyncAlways, wrap: cfg.WrapJournal}
	rec, maxGen, err := recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	st.gen = maxGen
	return st, rec, nil
}

// Err returns the sticky journal-append error, if any. A failed append
// poisons the journal (later records would replay out of order past the
// gap); the next successful Rotate clears it, because the fresh snapshot
// supersedes the broken journal.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Rotate writes state as the next snapshot generation (atomically: temp file
// + rename), opens a fresh empty journal for it, and deletes every
// superseded snapshot and journal. After a graceful shutdown's final Rotate,
// the next Open replays zero records.
func (st *Store) Rotate(state *State) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	gen := st.gen + 1
	doc, err := EncodeSnapshot(gen, state)
	if err != nil {
		return err
	}
	if err := st.writeAtomic(snapshotName(gen), doc); err != nil {
		return err
	}
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	f, err := os.OpenFile(filepath.Join(st.dir, journalName(gen)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: open journal: %w", err)
	}
	var jf JournalFile = f
	if st.wrap != nil {
		jf = st.wrap(gen, f)
	}
	st.f = jf
	st.syncDir()
	// The new generation is durable; drop every superseded file.
	for _, name := range generationFiles(st.dir) {
		if g, ok := fileGen(name); ok && g < gen {
			os.Remove(filepath.Join(st.dir, name))
		}
	}
	st.syncDir()
	st.gen, st.seq, st.err = gen, 0, nil
	st.snapBytes, st.journalBytes = int64(len(doc)), 0
	return nil
}

// RotateDue reports whether the open journal has outgrown its snapshot (see
// RotateRatio). A poisoned or unopened journal is never due.
func (st *Store) RotateDue() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f != nil && st.err == nil && st.journalBytes >= max(RotateRatio*st.snapBytes, RotateMinBytes)
}

// Close flushes and closes the journal, returning the sticky append error
// if the journal is poisoned, else the first final sync or close error (the
// last records may not be durable). The dir stays recoverable either way.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	if st.f != nil {
		if st.fsync {
			err = st.f.Sync()
		}
		if cerr := st.f.Close(); err == nil {
			err = cerr
		}
		st.f = nil
	}
	if st.err == nil && err != nil {
		return fmt.Errorf("persist: close journal: %w", err)
	}
	return st.err
}

// writeAtomic writes name via a temp file + rename so readers never see a
// partial document.
func (st *Store) writeAtomic(name string, data []byte) error {
	tmp := filepath.Join(st.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: write %s: %w", name, err)
	}
	if st.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("persist: sync %s: %w", name, err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: close %s: %w", name, err)
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: publish %s: %w", name, err)
	}
	return nil
}

// syncDir fsyncs the data dir so renames and unlinks are durable.
func (st *Store) syncDir() {
	if !st.fsync {
		return
	}
	if d, err := os.Open(st.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// append journals one record. Failures are sticky (see Err); the service
// keeps running in memory — availability over durability — and the operator
// learns at shutdown or via Err.
func (st *Store) append(rec Record) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return
	}
	if st.f == nil {
		st.err = fmt.Errorf("persist: record before the first Rotate (no journal open)")
		return
	}
	rec.Seq = st.seq + 1
	frame, err := encodeRecord(rec)
	if err != nil {
		st.err = err
		return
	}
	if _, err := st.f.Write(frame); err != nil {
		st.err = fmt.Errorf("persist: journal append: %w", err)
		return
	}
	if st.fsync {
		if err := st.f.Sync(); err != nil {
			st.err = fmt.Errorf("persist: journal sync: %w", err)
			return
		}
	}
	st.seq = rec.Seq
	st.journalBytes += int64(len(frame))
}

// RecordOpenJob journals a job registration.
func (st *Store) RecordOpenJob(job string, m model.Config, gpus []core.GPUType, priority int) {
	wm := wire.FromModel(m)
	st.append(Record{Op: OpOpenJob, Job: job, Model: &wm, GPUs: gpuNames(gpus), Priority: priority})
}

// RecordCloseJob journals a job release. The lease release (fleet mode) is a
// separate ledger op, journaled by the ledger observer before this record.
func (st *Store) RecordCloseJob(job string) {
	st.append(Record{Op: OpCloseJob, Job: job})
}

// RecordJobPlan journals a job's last successful request — the seed of the
// warm replans Rebalance issues after recovery. A fleet grant's lease-install
// carries the plan, so a grant records this only when the objective or
// constraints change.
func (st *Store) RecordJobPlan(job string, plan core.Plan, obj core.Objective, cons core.Constraints) {
	wp := PlanFrom(plan)
	wc := wire.FromConstraints(cons)
	st.append(Record{Op: OpJobPlan, Job: job, Plan: &wp, Objective: obj.String(), Constraints: &wc})
}

// RecordSetFleet journals a fleet ledger installation or replacement, as the
// full post-install ledger snapshot (version included), so replay restores a
// caller-built ledger exactly.
func (st *Store) RecordSetFleet(snap fleet.Snapshot) {
	st.append(Record{Op: OpSetFleet, Fleet: FleetStateFrom(snap)})
}

// RecordLedgerOp journals one committed fleet-ledger mutation. It is called
// from inside the ledger's critical section (fleet.SetObserver), so records
// land in exact ledger-version order; replay asserts Version after each.
func (st *Store) RecordLedgerOp(op fleet.Op) {
	rec := Record{Op: op.Kind.String(), Version: op.Version}
	switch op.Kind {
	case fleet.OpInstall:
		wp := PlanFrom(op.Plan)
		rec.Job, rec.Priority, rec.Plan = op.Job, op.Priority, &wp
	case fleet.OpRelease:
		rec.Job = op.Job
	case fleet.OpApply:
		ev := wire.FromFleetEvent(op.Event)
		rec.Event = &ev
	case fleet.OpSetCap:
		jobCap := op.JobCap
		rec.JobCap = &jobCap
	default:
		st.mu.Lock()
		if st.err == nil {
			st.err = fmt.Errorf("persist: unknown ledger op kind %v", op.Kind)
		}
		st.mu.Unlock()
		return
	}
	st.append(rec)
}

// gpuNames flattens a GPU type set for the wire.
func gpuNames(gpus []core.GPUType) []string {
	out := make([]string, len(gpus))
	for i, g := range gpus {
		out[i] = string(g)
	}
	return out
}

// snapshotName / journalName are the on-disk file names of one generation.
func snapshotName(gen uint64) string { return fmt.Sprintf("snapshot-%016d.json", gen) }
func journalName(gen uint64) string  { return fmt.Sprintf("journal-%016d.wal", gen) }

// fileGen parses the generation out of a snapshot or journal file name;
// foreign files report ok=false and are ignored by rotation and recovery.
func fileGen(name string) (uint64, bool) {
	var rest string
	switch {
	case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".json"):
		rest = strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".json")
	case strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".wal"):
		rest = strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".wal")
	default:
		return 0, false
	}
	g, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// generationFiles lists the snapshot/journal files of dir, ignoring
// everything else (temp files, foreign files).
func generationFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if _, ok := fileGen(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}
