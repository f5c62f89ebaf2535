package main

// Span recording for the traced run. Spans live in memory and are written
// once, at the end, to benchmarks/out/trace-<workload>.json. The traced run
// drives one client at a time, so at any instant at most one call chain is
// open and a span's parent is simply the innermost span still open.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/sailor"
)

// Span names: one per call the benchmark makes into a layer.
const (
	spanClientCall    = "client.call"    // root: one op through sailor.Client
	spanPersistRecord = "persist.record" // one Recorder call (encode + append)
	spanPersistWrite  = "persist.write"  // journal file Write
	spanPersistSync   = "persist.sync"   // journal file Sync
)

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Op      int    `json:"op"`     // op id shared by the spans of one request
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, which is how the
// untraced run shares the traced run's client code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // ids of the spans still open, innermost last
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id. A
// root span starts a new op.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// span opens a span and returns the func that closes it.
func (t *tracer) span(name string) (end func()) {
	id := t.begin(name)
	return func() { t.end(id) }
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// spanStats is the per-name aggregate of a span set.
type spanStats struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // summed self times
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its child spans cover (children clipped to
// the parent, overlapping children counted once).
func selfTimes(spans []span) map[string]spanStats {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanStats{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.EndNS - s.StartNS)
		st.self += time.Duration(s.EndNS - s.StartNS - covered)
		out[s.Name] = st
	}
	return out
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	doc, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// tracedJournal is the persist.Config.WrapJournal shim: it times the
// journal file's Write and Sync. Both are machine-specific — they measure
// this disk and this filesystem.
type tracedJournal struct {
	persist.JournalFile
	tr *tracer
}

func (j tracedJournal) Write(p []byte) (int, error) {
	defer j.tr.span(spanPersistWrite)()
	return j.JournalFile.Write(p)
}

func (j tracedJournal) Sync() error {
	defer j.tr.span(spanPersistSync)()
	return j.JournalFile.Sync()
}

// tracedRecorder is the sailor.Recorder wrapper between the service and the
// store: each call is one persist.record span whose children are the
// journal's write and sync. Err forwards the store's sticky append error so
// Stats keeps reporting journal_error through the wrapper.
type tracedRecorder struct {
	store *persist.Store
	tr    *tracer
}

var _ sailor.Recorder = tracedRecorder{}

func (r tracedRecorder) Err() error { return r.store.Err() }

func (r tracedRecorder) RecordOpenJob(job string, m model.Config, gpus []core.GPUType, priority int) {
	defer r.tr.span(spanPersistRecord)()
	r.store.RecordOpenJob(job, m, gpus, priority)
}

func (r tracedRecorder) RecordCloseJob(job string) {
	defer r.tr.span(spanPersistRecord)()
	r.store.RecordCloseJob(job)
}

func (r tracedRecorder) RecordJobPlan(job string, plan core.Plan, obj core.Objective, cons core.Constraints) {
	defer r.tr.span(spanPersistRecord)()
	r.store.RecordJobPlan(job, plan, obj, cons)
}

func (r tracedRecorder) RecordSetFleet(snap fleet.Snapshot) {
	defer r.tr.span(spanPersistRecord)()
	r.store.RecordSetFleet(snap)
}

func (r tracedRecorder) RecordLedgerOp(op fleet.Op) {
	defer r.tr.span(spanPersistRecord)()
	r.store.RecordLedgerOp(op)
}

// tracedShims wires both shims to one tracer.
func tracedShims(tr *tracer) stackShims {
	return stackShims{
		wrapJournal: func(_ uint64, f persist.JournalFile) persist.JournalFile {
			return tracedJournal{JournalFile: f, tr: tr}
		},
		wrapRecorder: func(st *persist.Store) sailor.Recorder { return tracedRecorder{store: st, tr: tr} },
	}
}
