package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
)

// TestCompareBenchJSONGate pins the CI perf gate: shared rows must keep
// explored and cache_hits identical and allocs/op within the growth limit;
// ns/op never gates; rows on one side only are reported, not failed.
func TestCompareBenchJSONGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows ...benchResult) string {
		t.Helper()
		raw, err := json.Marshal(benchDoc{V: benchSchemaVersion, Kind: "planner-bench", Workers: 1, Benches: rows})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	warm := benchResult{Name: "replan_warm", NsPerOp: 100, AllocsPerOp: 1000, Explored: 0, CacheHits: 2085}
	base := write("base.json", warm, benchResult{Name: "retired", NsPerOp: 1, Explored: 7})
	with := func(f func(*benchResult)) benchResult {
		r := warm
		f(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		cand []benchResult
		fail string // substring of the gate error; "" = must pass
	}{
		{"identical", []benchResult{warm}, ""},
		{"slower-but-same-work", []benchResult{with(func(r *benchResult) { r.NsPerOp *= 3 })}, ""},
		{"allocs-within-limit", []benchResult{with(func(r *benchResult) { r.AllocsPerOp = 1099 })}, ""},
		{"allocs-over-limit", []benchResult{with(func(r *benchResult) { r.AllocsPerOp = 1101 })}, "allocs/op 1000 -> 1101"},
		{"explored-moved", []benchResult{with(func(r *benchResult) { r.Explored = 1 })}, "explored 0 -> 1"},
		{"cache-hits-moved", []benchResult{with(func(r *benchResult) { r.CacheHits-- })}, "cache_hits 2085 -> 2084"},
		{"new-row-not-gated", []benchResult{warm, {Name: "new", NsPerOp: 1, Explored: 9}}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := compareBenchJSON(write("cand.json", tc.cand...), base, 0.10, &out)
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("gate failed: %v", err)
			case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
				t.Fatalf("gate error = %v, want one naming %q", err, tc.fail)
			}
			if !strings.Contains(out.String(), "retired (baseline only)") {
				t.Errorf("baseline-only row not reported as retired:\n%s", out.String())
			}
		})
	}
	if err := compareBenchJSON(filepath.Join(dir, "missing.json"), base, 0.10, io.Discard); err == nil {
		t.Error("missing candidate document passed the gate")
	}
}

// BenchmarkPersistRecover is the persist_recover/fleet-storm row alone, the
// quick loop for recovery work:
//
//	go test ./cmd/sailor-bench -run xxx -bench PersistRecover -benchmem
func BenchmarkPersistRecover(b *testing.B) {
	dir := b.TempDir()
	if err := writeFleetJournal(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		_, rec, err := persist.Open(dir, persist.Config{Fsync: persist.FsyncNone})
		if err != nil {
			b.Fatal(err)
		}
		records = rec.RecordsReplayed
	}
	b.ReportMetric(float64(records), "records/op")
}

// BenchmarkWireCodec is the wire_codec/warm-churn row alone: warm-churn
// Replan requests and replies encoded, decoded and converted back.
//
//	go test ./cmd/sailor-bench -run xxx -bench WireCodec -benchmem
func BenchmarkWireCodec(b *testing.B) {
	pairs, err := codecPairs()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	codecLoop(b, pairs)
}

// BenchmarkReplanNovel is the replan_novel/warm-churn row alone: warm
// replan chains over pools that never repeat, so no stored result answers
// and every replan searches in full.
//
//	go test ./cmd/sailor-bench -run xxx -bench ReplanNovel -benchmem
func BenchmarkReplanNovel(b *testing.B) {
	cfg, ev, err := perfLab(core.A100)
	if err != nil {
		b.Fatal(err)
	}
	traces, err := novelPools()
	if err != nil {
		b.Fatal(err)
	}
	replans := 0
	for _, pools := range traces {
		replans += len(pools)
	}
	explored, hits := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if explored, hits, err = novelChain(*cfg, ev, 1, traces); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(replans), "replans/op")
	b.ReportMetric(float64(explored), "explored/op")
	b.ReportMetric(float64(hits), "cache-hits/op")
}
