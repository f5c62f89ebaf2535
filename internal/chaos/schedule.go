// Package chaos is the deterministic fault-injection layer of the serving
// stack: a seeded Injector that wraps the three I/O seams a Sailor daemon
// lives on — client and server ends of the rpc transport (net.Conn), the
// accept loop (net.Listener), and the durability journal
// (persist.JournalFile) — and fires scripted faults at exact operation
// indices. Faults are declared in a versioned JSON fault schedule (the same
// self-describing envelope trace files use), so a fault sequence is
// replayable byte-for-byte: the same schedule and seed against the same
// workload produce the identical fault log, which is what lets the chaos
// e2e in package sailor pin "flaky network + failing disk + kill -9" runs
// against the undisturbed golden.
//
// Determinism contract: faults key on operation *counts*, never wall-clock
// or byte offsets into a stream. Client-side request frames pass through
// one buffered Write per call, so "the Nth write on conn K" is a stable
// coordinate; read counts (TCP segmentation) are not, and schedules that
// key on reads are only deterministic against loopback pipes. All
// randomness (cut offsets, delay lengths declared as -1) draws from one
// seeded source in firing order.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// FileVersion is the fault-schedule schema version this build speaks;
// decoding rejects every other version by name. Bump it when the
// schedule's shape changes incompatibly.
const FileVersion = 1

// fileKind is the envelope kind of a fault-schedule document.
const fileKind = "fault-schedule"

// Fault targets: which I/O seam a rule arms.
const (
	// TargetConn fires on a wrapped connection's Read/Write calls.
	TargetConn = "conn"
	// TargetListener fires on the wrapped listener's accepts.
	TargetListener = "listener"
	// TargetJournal fires on the wrapped journal's appends and syncs.
	TargetJournal = "journal"
)

// Connection sides: client conns are numbered in WrapConn order, server
// conns carry the accept index that produced them.
const (
	SideClient = "client"
	SideServer = "server"
)

// Operations a rule can intercept.
const (
	OpWrite  = "write"
	OpRead   = "read"
	OpAccept = "accept"
	OpAppend = "append"
	OpSync   = "sync"
)

// Fault actions.
const (
	// ActionCut writes (or reads) OffsetBytes of the operation, then closes
	// the connection mid-frame and fails the call.
	ActionCut = "cut"
	// ActionRefuse accepts then immediately closes an incoming connection.
	ActionRefuse = "refuse"
	// ActionFail fails a journal append (after OffsetBytes of torn frame)
	// or sync, poisoning the store until the next Rotate.
	ActionFail = "fail"
	// ActionDelay sleeps DelayMS before performing the operation normally.
	ActionDelay = "delay"
)

// Rule arms one fault: on the Nth occurrence (1-based) of an operation on
// a target, perform an action, for Count consecutive occurrences.
type Rule struct {
	// ID names the rule in the fault log; unique within a schedule.
	ID string `json:"id"`
	// Target is TargetConn, TargetListener, or TargetJournal.
	Target string `json:"target"`
	// Side (conn only) is SideClient or SideServer; "" means client.
	Side string `json:"side,omitempty"`
	// Conn (conn only) is the 1-based connection index on that side.
	Conn int `json:"conn,omitempty"`
	// Op is the intercepted operation; "" means the target's default
	// (write for conns, accept for listeners, append for journals).
	Op string `json:"op,omitempty"`
	// Nth is the 1-based operation index at which the rule starts firing.
	Nth int `json:"nth"`
	// Count is how many consecutive operations fire; 0 means 1.
	Count int `json:"count,omitempty"`
	// Action is what happens: cut, refuse, fail, or delay.
	Action string `json:"action"`
	// OffsetBytes (cut, append-fail) is how many bytes of the operation go
	// through before the fault; -1 draws a seeded random offset within the
	// buffer.
	OffsetBytes int `json:"offset_bytes,omitempty"`
	// DelayMS (delay) is the sleep in milliseconds; -1 draws a seeded
	// random delay in [1, 10].
	DelayMS int `json:"delay_ms,omitempty"`
}

// Schedule is a named, seeded fault script — the unit Marshal writes and
// sailor-serve -chaos loads.
type Schedule struct {
	// Name identifies the schedule in logs and goldens.
	Name string
	// Description is a one-line summary of the failure story.
	Description string
	// Seed drives every random draw (offsets and delays declared as -1).
	Seed uint64
	// Faults are the armed rules, matched in declaration order.
	Faults []Rule
}

// fileEnvelope is a fault-schedule document's header: version, kind, and
// the body, decoded once the header checks out.
type fileEnvelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

type fileBody struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        uint64 `json:"seed"`
	Faults      []Rule `json:"faults"`
}

// Marshal encodes a schedule as a canonical versioned JSON document:
// normalized rules (explicit side/op/count), struct fields in declaration
// order, two-space indentation, trailing newline. Equal schedules marshal
// to identical bytes, so schedules commit as goldens and diff meaningfully.
func Marshal(s *Schedule) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("chaos: Marshal: nil schedule")
	}
	norm, err := normalize(s)
	if err != nil {
		return nil, err
	}
	body := fileBody{
		Name:        norm.Name,
		Description: norm.Description,
		Seed:        norm.Seed,
		Faults:      norm.Faults,
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("chaos: Marshal %q: %w", s.Name, err)
	}
	doc, err := json.MarshalIndent(fileEnvelope{V: FileVersion, Kind: fileKind, Body: raw}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("chaos: Marshal %q: %w", s.Name, err)
	}
	return append(doc, '\n'), nil
}

// Unmarshal decodes a versioned fault-schedule document, rejecting unknown
// schema versions, kinds, and fields by name, and validating every rule so
// a malformed script fails loudly at the boundary instead of silently
// never firing.
func Unmarshal(data []byte) (*Schedule, error) {
	var env fileEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("chaos: decode envelope: %w", err)
	}
	if env.V != FileVersion {
		return nil, fmt.Errorf("chaos: unsupported fault-schedule schema version %d (this build speaks v%d)", env.V, FileVersion)
	}
	if env.Kind != fileKind {
		return nil, fmt.Errorf("chaos: kind %q, want %q", env.Kind, fileKind)
	}
	dec := json.NewDecoder(bytes.NewReader(env.Body))
	dec.DisallowUnknownFields()
	var body fileBody
	if err := dec.Decode(&body); err != nil {
		return nil, fmt.Errorf("chaos: decode schedule body: %w", err)
	}
	s := &Schedule{Name: body.Name, Description: body.Description, Seed: body.Seed, Faults: body.Faults}
	return normalize(s)
}

// normalize validates a schedule and returns a copy with defaults filled
// in (side, op, count), so the injector and the canonical encoding both
// see fully explicit rules.
func normalize(s *Schedule) (*Schedule, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("chaos: schedule has no name")
	}
	out := &Schedule{Name: s.Name, Description: s.Description, Seed: s.Seed, Faults: make([]Rule, len(s.Faults))}
	seen := map[string]bool{}
	for i, r := range s.Faults {
		if r.ID == "" {
			return nil, fmt.Errorf("chaos: %q fault %d has no id", s.Name, i)
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("chaos: %q has duplicate fault id %q", s.Name, r.ID)
		}
		seen[r.ID] = true
		if r.Nth < 1 {
			return nil, fmt.Errorf("chaos: fault %q: nth %d (operation indices are 1-based)", r.ID, r.Nth)
		}
		if r.Count < 0 {
			return nil, fmt.Errorf("chaos: fault %q: negative count %d", r.ID, r.Count)
		}
		if r.Count == 0 {
			r.Count = 1
		}
		if r.OffsetBytes < -1 {
			return nil, fmt.Errorf("chaos: fault %q: offset_bytes %d (want >= -1)", r.ID, r.OffsetBytes)
		}
		switch r.Target {
		case TargetConn:
			if r.Side == "" {
				r.Side = SideClient
			}
			if r.Side != SideClient && r.Side != SideServer {
				return nil, fmt.Errorf("chaos: fault %q: side %q (want %q or %q)", r.ID, r.Side, SideClient, SideServer)
			}
			if r.Conn < 1 {
				return nil, fmt.Errorf("chaos: fault %q: conn %d (connection indices are 1-based)", r.ID, r.Conn)
			}
			if r.Op == "" {
				r.Op = OpWrite
			}
			if r.Op != OpWrite && r.Op != OpRead {
				return nil, fmt.Errorf("chaos: fault %q: op %q on a conn (want %q or %q)", r.ID, r.Op, OpWrite, OpRead)
			}
			if r.Action != ActionCut && r.Action != ActionDelay {
				return nil, fmt.Errorf("chaos: fault %q: action %q on a conn (want %q or %q)", r.ID, r.Action, ActionCut, ActionDelay)
			}
		case TargetListener:
			if r.Side != "" || r.Conn != 0 {
				return nil, fmt.Errorf("chaos: fault %q: listener rules take no side or conn", r.ID)
			}
			if r.Op == "" {
				r.Op = OpAccept
			}
			if r.Op != OpAccept {
				return nil, fmt.Errorf("chaos: fault %q: op %q on the listener (want %q)", r.ID, r.Op, OpAccept)
			}
			if r.Action != ActionRefuse {
				return nil, fmt.Errorf("chaos: fault %q: action %q on the listener (want %q)", r.ID, r.Action, ActionRefuse)
			}
		case TargetJournal:
			if r.Side != "" || r.Conn != 0 {
				return nil, fmt.Errorf("chaos: fault %q: journal rules take no side or conn", r.ID)
			}
			if r.Op == "" {
				r.Op = OpAppend
			}
			if r.Op != OpAppend && r.Op != OpSync {
				return nil, fmt.Errorf("chaos: fault %q: op %q on the journal (want %q or %q)", r.ID, r.Op, OpAppend, OpSync)
			}
			if r.Action != ActionFail && r.Action != ActionDelay {
				return nil, fmt.Errorf("chaos: fault %q: action %q on the journal (want %q or %q)", r.ID, r.Action, ActionFail, ActionDelay)
			}
			if r.Op == OpSync && r.OffsetBytes != 0 {
				return nil, fmt.Errorf("chaos: fault %q: offset_bytes on a sync fault", r.ID)
			}
		default:
			return nil, fmt.Errorf("chaos: fault %q: target %q (want %q, %q, or %q)", r.ID, r.Target, TargetConn, TargetListener, TargetJournal)
		}
		if r.Action == ActionDelay && r.DelayMS != -1 && r.DelayMS < 1 {
			return nil, fmt.Errorf("chaos: fault %q: delay_ms %d (want >= 1, or -1 for seeded random)", r.ID, r.DelayMS)
		}
		if r.Action != ActionDelay && r.DelayMS != 0 {
			return nil, fmt.Errorf("chaos: fault %q: delay_ms on a non-delay action", r.ID)
		}
		out.Faults[i] = r
	}
	return out, nil
}
