package persist

// Journal codec: one binary frame per state-mutating operation,
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// (big-endian), where the payload is a compact envelope
// {"v":1,"kind":"journal","body":{record}}. The CRC plus the contiguous
// per-generation sequence number make torn appends detectable: decoding
// stops cleanly at the first frame that is truncated, fails its checksum,
// or breaks the sequence, and reports how many trailing bytes it dropped.
// Anything *before* that point decoded fully or not at all — a partial
// record is never surfaced.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// Journal record op names. The four ledger ops mirror fleet.OpKind.String().
const (
	OpOpenJob  = "open-job"
	OpCloseJob = "close-job"
	OpJobPlan  = "job-plan"
	OpSetFleet = "set-fleet"
	OpInstall  = "lease-install"
	OpRelease  = "lease-release"
	OpEvent    = "fleet-event"
	OpSetCap   = "set-cap"
)

// maxRecordBytes bounds a single journal payload; a length prefix beyond it
// is treated as tail corruption, not an allocation request.
const maxRecordBytes = 16 << 20

// Record is one journaled mutation. Op decides which fields are set; the
// rest stay at their zero values and are omitted from the encoding.
type Record struct {
	// Seq numbers records contiguously from 1 within one journal generation.
	Seq uint64 `json:"seq"`
	// Op is one of the Op* names above.
	Op string `json:"op"`

	// Job names the subject of open-job / close-job / job-plan /
	// lease-install / lease-release.
	Job string `json:"job,omitempty"`
	// Priority rides with open-job and lease-install.
	Priority int `json:"priority,omitempty"`
	// Model and GPUs register the job (open-job).
	Model *wire.Model `json:"model,omitempty"`
	GPUs  []string    `json:"gpus,omitempty"`
	// Plan is the deployed plan (job-plan, lease-install). Replay makes a
	// lease-install's plan the last plan of a job that has a triple.
	Plan *Plan `json:"plan,omitempty"`
	// Objective and Constraints complete the job-plan triple, recorded on a
	// fleet job's first grant and whenever they change.
	Objective   string            `json:"objective,omitempty"`
	Constraints *wire.Constraints `json:"constraints,omitempty"`
	// Fleet is the full post-install ledger state (set-fleet).
	Fleet *FleetState `json:"fleet,omitempty"`
	// JobCap is the new per-job cap (set-cap); pointer so cap 0 survives.
	JobCap *int `json:"job_cap,omitempty"`
	// Event is the applied availability event (fleet-event).
	Event *wire.FleetEvent `json:"event,omitempty"`
	// Version is the ledger's post-op mutation counter (ledger ops only);
	// replay asserts it after applying each record.
	Version uint64 `json:"version,omitempty"`
}

// envelope is the self-describing header of every persisted document,
// {"v":1,"kind":...,"body":{...}}, with a typed body so a snapshot or record
// encodes and decodes in one JSON pass, to the same bytes.
type envelope[T any] struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	Body T      `json:"body"`
}

// decodeEnvelope parses a document of the given kind strictly, rejecting
// other schema versions, kinds, and unknown fields by name.
func decodeEnvelope[T any](data []byte, kind string) (T, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env envelope[T]
	var zero T
	err := dec.Decode(&env)
	if err != nil && env.V == 0 {
		return zero, fmt.Errorf("persist: decode %s: %w", kind, err)
	}
	// Decode fills the header past an unknown or mistyped body field: name
	// another version or kind rather than the field it tripped on.
	if env.V != FormatVersion {
		return zero, fmt.Errorf("persist: %s: unsupported format version %d (this build speaks v%d)", kind, env.V, FormatVersion)
	}
	if env.Kind != kind {
		return zero, fmt.Errorf("persist: envelope kind %q, want %q", env.Kind, kind)
	}
	if err != nil {
		return zero, fmt.Errorf("persist: decode %s: %w", kind, err)
	}
	return env.Body, nil
}

// encodeRecord renders one framed journal record.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(envelope[Record]{V: FormatVersion, Kind: kindJournal, Body: rec})
	if err != nil {
		return nil, fmt.Errorf("persist: marshal record %d: %w", rec.Seq, err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("persist: record %d is %d bytes, over the %d limit", rec.Seq, len(payload), maxRecordBytes)
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// decodeJournal parses a journal image into its intact record prefix.
// Truncated or corrupted tails (short frame, bad CRC, broken sequence,
// undecodable payload) end the scan cleanly; tail reports the bytes
// dropped. A non-nil error means the journal is incompatible, not torn —
// an unknown schema version, kind, or op in a checksummed record — and
// recovery must stop rather than silently skip mutations.
func decodeJournal(data []byte) (recs []Record, tail int, err error) {
	rest := data
	for {
		if len(rest) < 8 {
			return recs, len(rest), nil
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		sum := binary.BigEndian.Uint32(rest[4:8])
		if n == 0 || n > maxRecordBytes || int(n) > len(rest)-8 {
			return recs, len(rest), nil
		}
		payload := rest[8 : 8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, len(rest), nil
		}
		rec, decErr := decodeRecord(payload)
		if decErr != nil {
			// The checksum passed, so these bytes were written this way: a
			// schema mismatch, not a torn tail. Fail recovery loudly.
			return recs, len(rest), decErr
		}
		if rec.Seq != uint64(len(recs))+1 {
			// A sequence break with a valid checksum means frames from a
			// different generation or a lost middle record; nothing after it
			// can be trusted. Treat like a torn tail: keep the intact prefix.
			return recs, len(rest), nil
		}
		recs = append(recs, rec)
		rest = rest[8+int(n):]
	}
}

// decodeRecord parses one checksummed frame payload strictly.
func decodeRecord(payload []byte) (Record, error) {
	rec, err := decodeEnvelope[Record](payload, kindJournal)
	if err != nil {
		return Record{}, err
	}
	switch rec.Op {
	case OpOpenJob, OpCloseJob, OpJobPlan, OpSetFleet, OpInstall, OpRelease, OpEvent, OpSetCap:
		return rec, nil
	}
	return Record{}, fmt.Errorf("persist: unknown journal op %q", rec.Op)
}
