package trace

// External trace files: a versioned JSON schema (plus a CSV import path)
// for availability traces, so real cloud availability and spot-preemption
// logs replay through sailor-replay and the fleet path exactly like the
// built-in scenario families.
//
// The document is a self-describing envelope,
// {"v":1,"kind":"trace","body":{...}}, whose version is this file format's
// own (FileVersion).
//
// Encoding is canonical and deterministic: events are stably sorted by
// timestamp (insertion order preserved within one instant — order matters
// there, because reclamations clamp stepwise), cap events likewise, and the
// DTOs contain no maps, so Save(Load(doc)) reproduces a canonical document
// byte-for-byte. Decoding rejects unknown schema versions and kinds by
// name, and validates the replay invariants (horizon positive, events
// within it, named zones and GPU types, non-negative caps) so a malformed
// log fails loudly at the boundary instead of corrupting a replay.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// FileVersion is the trace-file schema version this build speaks; decoders
// reject every other version. Bump it when the document's shape changes
// incompatibly.
const FileVersion = 1

// fileKind is the envelope kind of a trace document.
const fileKind = "trace"

// File is a named external availability trace — the unit sailor-replay
// -trace loads and sailor-advgen writes.
type File struct {
	// Name identifies the trace in ledgers and listings.
	Name string
	// Description is a one-line summary of where the trace came from.
	Description string
	// Trace is the canonical (sorted) event sequence.
	Trace *Trace
}

// fileEnvelope is a trace document's header: version, kind, and the
// body, decoded once the header checks out.
type fileEnvelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body"`
}

type fileBody struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	HorizonNS   int64       `json:"horizon_ns"`
	Events      []fileEvent `json:"events"`
	CapEvents   []fileCap   `json:"cap_events,omitempty"`
}

type fileEvent struct {
	AtNS   int64  `json:"at_ns"`
	Region string `json:"region"`
	Zone   string `json:"zone"`
	GPU    string `json:"gpu"`
	Delta  int    `json:"delta"`
}

type fileCap struct {
	AtNS int64 `json:"at_ns"`
	GPUs int   `json:"gpus"`
}

// Save encodes a trace file as a canonical versioned JSON document:
// events stably sorted by timestamp, struct fields in declaration order,
// two-space indentation, trailing newline. Equal files marshal to
// identical bytes, which is what lets adversarial worst cases be committed
// as goldens and diffed meaningfully.
func Save(f *File) ([]byte, error) {
	if f == nil || f.Trace == nil {
		return nil, fmt.Errorf("trace: Save: nil trace file")
	}
	if f.Name == "" {
		return nil, fmt.Errorf("trace: Save: trace file needs a name")
	}
	t := f.Trace.Clone()
	t.sortEvents()
	if err := validateTrace(t); err != nil {
		return nil, fmt.Errorf("trace: Save %q: %w", f.Name, err)
	}
	body := fileBody{
		Name:        f.Name,
		Description: f.Description,
		HorizonNS:   t.Horizon.Nanoseconds(),
		Events:      make([]fileEvent, len(t.Events)),
	}
	for i, e := range t.Events {
		body.Events[i] = fileEvent{
			AtNS:   e.At.Nanoseconds(),
			Region: e.Zone.Region,
			Zone:   e.Zone.Name,
			GPU:    string(e.GPU),
			Delta:  e.Delta,
		}
	}
	for _, c := range t.CapEvents {
		body.CapEvents = append(body.CapEvents, fileCap{AtNS: c.At.Nanoseconds(), GPUs: c.GPUs})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("trace: Save %q: %w", f.Name, err)
	}
	doc, err := json.MarshalIndent(fileEnvelope{V: FileVersion, Kind: fileKind, Body: raw}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trace: Save %q: %w", f.Name, err)
	}
	return append(doc, '\n'), nil
}

// Load decodes a versioned trace document, rejecting unknown schema
// versions and kinds by name, validating the replay invariants, and
// canonicalizing the event order.
func Load(data []byte) (*File, error) {
	var env fileEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("trace: decode envelope: %w", err)
	}
	if env.V != FileVersion {
		return nil, fmt.Errorf("trace: unsupported trace-file schema version %d (this build speaks v%d)", env.V, FileVersion)
	}
	if env.Kind != fileKind {
		return nil, fmt.Errorf("trace: kind %q, want %q", env.Kind, fileKind)
	}
	dec := json.NewDecoder(bytes.NewReader(env.Body))
	dec.DisallowUnknownFields()
	var body fileBody
	if err := dec.Decode(&body); err != nil {
		return nil, fmt.Errorf("trace: decode trace body: %w", err)
	}
	if body.Name == "" {
		return nil, fmt.Errorf("trace: trace file has no name")
	}
	t := &Trace{Horizon: time.Duration(body.HorizonNS)}
	for _, e := range body.Events {
		t.Events = append(t.Events, Event{
			At:    time.Duration(e.AtNS),
			Zone:  core.Zone{Region: e.Region, Name: e.Zone},
			GPU:   core.GPUType(e.GPU),
			Delta: e.Delta,
		})
	}
	for _, c := range body.CapEvents {
		t.CapEvents = append(t.CapEvents, CapEvent{At: time.Duration(c.AtNS), GPUs: c.GPUs})
	}
	t.sortEvents()
	if err := validateTrace(t); err != nil {
		return nil, fmt.Errorf("trace: load %q: %w", body.Name, err)
	}
	return &File{Name: body.Name, Description: body.Description, Trace: t}, nil
}

// validateTrace enforces the replay invariants an external trace must
// satisfy before it may drive a controller or a fleet: a positive horizon,
// at least one event, every timestamp within [0, horizon], and
// non-negative caps. (Availability never going negative needs no check —
// CountAt and PoolAt clamp stepwise by construction.)
func validateTrace(t *Trace) error {
	if t.Horizon <= 0 {
		return fmt.Errorf("horizon %v not positive", t.Horizon)
	}
	if len(t.Events) == 0 {
		return fmt.Errorf("trace has no availability events")
	}
	for i, e := range t.Events {
		if e.At < 0 || e.At > t.Horizon {
			return fmt.Errorf("event %d at %v outside [0, %v]", i, e.At, t.Horizon)
		}
		if e.Zone.Region == "" || e.Zone.Name == "" || e.GPU == "" {
			return fmt.Errorf("event %d names no zone or GPU type", i)
		}
	}
	for i, c := range t.CapEvents {
		if c.At < 0 || c.At > t.Horizon {
			return fmt.Errorf("cap event %d at %v outside [0, %v]", i, c.At, t.Horizon)
		}
		if c.GPUs < 0 {
			return fmt.Errorf("cap event %d sets a negative cap %d", i, c.GPUs)
		}
	}
	return nil
}

// LoadCSV imports a comma-separated availability log and canonicalizes it
// to the same shape Load produces — Save(LoadCSV(csv)) is the canonical
// JSON document of the log. The expected layout:
//
//	# name: my-spot-log            (optional directives before the header)
//	# description: us-central1 spot reclamations, 2024-04
//	# horizon: 8h
//	kind,at_seconds,region,zone,gpu,delta
//	event,0,us-central1,us-central1-a,A100,8
//	event,3600,us-central1,us-central1-a,A100,-3
//	cap,5400,,,,6
//
// Rows with kind "event" are availability deltas; rows with kind "cap" are
// demand-autoscaling directives (region/zone/gpu left empty, delta is the
// per-job GPU cap, 0 = uncapped). A missing horizon directive defaults to
// the last event timestamp.
func LoadCSV(data []byte) (*File, error) {
	name, desc := "csv-import", ""
	var horizon time.Duration
	var rows []string
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			directive := strings.TrimSpace(strings.TrimPrefix(trimmed, "#"))
			key, val, ok := strings.Cut(directive, ":")
			if !ok {
				continue
			}
			val = strings.TrimSpace(val)
			switch strings.TrimSpace(key) {
			case "name":
				name = val
			case "description":
				desc = val
			case "horizon":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("trace: csv horizon directive %q: %w", val, err)
				}
				horizon = d
			}
			continue
		}
		if trimmed != "" {
			rows = append(rows, line)
		}
	}
	r := csv.NewReader(strings.NewReader(strings.Join(rows, "\n")))
	r.FieldsPerRecord = 6
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: csv has no header row: %w", err)
	}
	want := []string{"kind", "at_seconds", "region", "zone", "gpu", "delta"}
	for i, col := range want {
		if i >= len(header) || strings.TrimSpace(header[i]) != col {
			return nil, fmt.Errorf("trace: csv header %v, want %v", header, want)
		}
	}
	t := &Trace{}
	for line := 2; ; line++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %w", line, err)
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad at_seconds %q", line, rec[1])
		}
		delta, err := strconv.Atoi(strings.TrimSpace(rec[5]))
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: bad delta %q", line, rec[5])
		}
		ts := time.Duration(at * float64(time.Second))
		switch kind := strings.TrimSpace(rec[0]); kind {
		case "event":
			t.Events = append(t.Events, Event{
				At:    ts,
				Zone:  core.Zone{Region: strings.TrimSpace(rec[2]), Name: strings.TrimSpace(rec[3])},
				GPU:   core.GPUType(strings.TrimSpace(rec[4])),
				Delta: delta,
			})
		case "cap":
			t.CapEvents = append(t.CapEvents, CapEvent{At: ts, GPUs: delta})
		default:
			return nil, fmt.Errorf("trace: csv line %d: unknown kind %q (want event or cap)", line, kind)
		}
	}
	t.sortEvents()
	if horizon <= 0 {
		if len(t.Events) > 0 {
			horizon = t.Events[len(t.Events)-1].At
		}
		if horizon <= 0 {
			horizon = time.Hour
		}
	}
	t.Horizon = horizon
	if err := validateTrace(t); err != nil {
		return nil, fmt.Errorf("trace: csv import %q: %w", name, err)
	}
	return &File{Name: name, Description: desc, Trace: t}, nil
}
