package persist

// Recovery: turn a data dir back into the service state it was recording.
// Load the newest snapshot that decodes, replay its journal's intact prefix
// through a live fleet.Ledger — so evictions, admission order, and version
// bumps re-derive from the same code that produced them — and assert the
// recorded post-op ledger version after every record. Any divergence is a
// hard error: a journal that does not match its snapshot must stop recovery,
// not produce a plausible-looking wrong state.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/fleet"
)

// recoverDir reconstructs the state a previous incarnation left in dir.
// It returns (nil, maxGen, nil) for a dir with no snapshots, where maxGen
// is the highest generation any file on disk names (so the next Rotate
// never collides with leftovers).
func recoverDir(dir string) (*Recovered, uint64, error) {
	start := time.Now()
	var maxGen uint64
	var snapGens []uint64
	for _, name := range generationFiles(dir) {
		g, _ := fileGen(name)
		if g > maxGen {
			maxGen = g
		}
		if filepath.Ext(name) == ".json" {
			snapGens = append(snapGens, g)
		}
	}
	if len(snapGens) == 0 {
		if maxGen != 0 {
			return nil, 0, fmt.Errorf("persist: %s holds journals but no snapshot — refusing to guess at state", dir)
		}
		return nil, 0, nil
	}
	sort.Slice(snapGens, func(i, k int) bool { return snapGens[i] > snapGens[k] })

	var lastErr error
	for i, gen := range snapGens {
		doc, err := os.ReadFile(filepath.Join(dir, snapshotName(gen)))
		if err != nil {
			lastErr = fmt.Errorf("persist: read %s: %w", snapshotName(gen), err)
			continue
		}
		fileG, state, err := DecodeSnapshot(doc)
		if err != nil {
			lastErr = err
			continue
		}
		if fileG != gen {
			lastErr = fmt.Errorf("persist: %s claims generation %d", snapshotName(gen), fileG)
			continue
		}
		rec, err := replayGeneration(dir, gen, state)
		if err != nil {
			// The snapshot decoded; a journal that contradicts it is real
			// corruption, not something an older snapshot can paper over.
			return nil, 0, err
		}
		rec.SnapshotsSkipped = i
		rec.Duration = time.Since(start)
		return rec, maxGen, nil
	}
	return nil, 0, fmt.Errorf("persist: no valid snapshot in %s: %w", dir, lastErr)
}

// replayGeneration applies generation gen's journal on top of state.
func replayGeneration(dir string, gen uint64, state *State) (*Recovered, error) {
	var recs []Record
	var tail int
	raw, err := os.ReadFile(filepath.Join(dir, journalName(gen)))
	switch {
	case err == nil:
		recs, tail, err = decodeJournal(raw)
		if err != nil {
			return nil, err
		}
	case os.IsNotExist(err):
		// A crash between snapshot rename and journal creation: the snapshot
		// alone is the complete state.
	default:
		return nil, fmt.Errorf("persist: read %s: %w", journalName(gen), err)
	}
	if err := replay(state, recs); err != nil {
		return nil, fmt.Errorf("persist: journal %d: %w", gen, err)
	}
	rec := &Recovered{
		State:            state,
		SnapshotGen:      gen,
		RecordsReplayed:  len(recs),
		TailBytesDropped: tail,
	}
	if state.Fleet != nil {
		rec.LedgerVersion = state.Fleet.Version
	}
	return rec, nil
}

// replay mutates state by applying recs in order. Ledger records drive a
// live fleet.Ledger restored from the snapshot's fleet state; after each,
// the ledger's version must equal the recorded post-op version.
func replay(state *State, recs []Record) error {
	jobs := make(map[string]*JobState, len(state.Jobs))
	for i := range state.Jobs {
		jobs[state.Jobs[i].Name] = &state.Jobs[i]
	}
	var led *fleet.Ledger
	if state.Fleet != nil {
		var err error
		if led, err = state.Fleet.Ledger(); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		ledgerOp := rec.Op == OpInstall || rec.Op == OpRelease || rec.Op == OpEvent || rec.Op == OpSetCap
		if ledgerOp && led == nil {
			return fmt.Errorf("record %d (%s) without a fleet ledger", rec.Seq, rec.Op)
		}
		switch rec.Op {
		case OpOpenJob:
			if _, ok := jobs[rec.Job]; ok {
				return fmt.Errorf("record %d reopens job %q", rec.Seq, rec.Job)
			}
			if rec.Model == nil {
				return fmt.Errorf("record %d opens job %q without a model", rec.Seq, rec.Job)
			}
			jobs[rec.Job] = &JobState{Name: rec.Job, Model: *rec.Model, GPUs: rec.GPUs, Priority: rec.Priority}
		case OpCloseJob:
			if _, ok := jobs[rec.Job]; !ok {
				return fmt.Errorf("record %d closes unknown job %q", rec.Seq, rec.Job)
			}
			delete(jobs, rec.Job)
		case OpJobPlan:
			j, ok := jobs[rec.Job]
			if !ok {
				return fmt.Errorf("record %d plans unknown job %q", rec.Seq, rec.Job)
			}
			if rec.Plan == nil || rec.Constraints == nil || rec.Objective == "" {
				return fmt.Errorf("record %d has a partial plan triple for job %q", rec.Seq, rec.Job)
			}
			j.LastPlan, j.LastObjective, j.LastConstraints = rec.Plan, rec.Objective, rec.Constraints
		case OpSetFleet:
			if rec.Fleet == nil {
				return fmt.Errorf("record %d sets an empty fleet", rec.Seq)
			}
			var err error
			if led, err = rec.Fleet.Ledger(); err != nil {
				return fmt.Errorf("record %d: %w", rec.Seq, err)
			}
		case OpInstall:
			if rec.Plan == nil {
				return fmt.Errorf("record %d installs a lease for %q without a plan", rec.Seq, rec.Job)
			}
			if _, err := led.Install(rec.Job, rec.Priority, rec.Plan.Core()); err != nil {
				return fmt.Errorf("record %d: %w", rec.Seq, err)
			}
			// A grant is the job's new last plan. A job-plan follows it on a
			// first grant (setting the whole triple) or a new objective.
			if j, ok := jobs[rec.Job]; ok && j.LastPlan != nil {
				j.LastPlan = rec.Plan
			}
		case OpRelease:
			if !led.Release(rec.Job) {
				return fmt.Errorf("record %d releases %q, which holds no lease", rec.Seq, rec.Job)
			}
		case OpEvent:
			if rec.Event == nil {
				return fmt.Errorf("record %d applies an empty fleet event", rec.Seq)
			}
			led.Apply(rec.Event.Trace())
		case OpSetCap:
			if rec.JobCap == nil {
				return fmt.Errorf("record %d sets no cap value", rec.Seq)
			}
			led.SetJobCap(*rec.JobCap)
		default:
			return fmt.Errorf("record %d has unknown op %q", rec.Seq, rec.Op)
		}
		if !ledgerOp {
			continue
		}
		if got := led.Version(); got != rec.Version {
			return fmt.Errorf("record %d (%s) replayed to ledger version %d, want %d — journal does not match snapshot", rec.Seq, rec.Op, got, rec.Version)
		}
	}
	// An older journal can hold a grant for a job closed while it planned,
	// its compensating release cut off by a torn tail. Complete the
	// compensation here, in admission order, so no capacity leaks.
	if led != nil {
		for _, le := range led.Snapshot().Leases {
			if _, ok := jobs[le.Job]; !ok {
				led.Release(le.Job)
			}
		}
	}
	survivors := make([]JobState, 0, len(jobs))
	for _, j := range jobs {
		survivors = append(survivors, *j)
	}
	state.Jobs = survivors
	state.Normalize()
	if led != nil {
		state.Fleet = FleetStateFrom(led.Snapshot())
	}
	if err := state.validate(); err != nil {
		return err
	}
	return nil
}
