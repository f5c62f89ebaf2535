package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCompareBenchJSONGate pins the CI perf gate: shared rows must keep
// explored and cache_hits identical and allocs/op within the growth limit;
// ns/op never gates; rows on one side only are reported, not failed.
func TestCompareBenchJSONGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows ...benchResult) string {
		t.Helper()
		raw, err := json.Marshal(benchDoc{V: benchSchemaVersion, Kind: benchKind, Workers: 1, Benches: rows})
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
	// Both documents decode strictly: schema version, kind, no unknown field.
	for _, tc := range []struct{ name, doc, fail string }{
		{"unknown-field", `{"v":1,"kind":"planner-bench","benches":[{"name":"replan_warm","ns":1}]}`, "unknown field"},
		{"wrong-version", `{"v":2,"kind":"planner-bench","benches":[]}`, "schema version 2"},
		{"wrong-kind", `{"v":1,"kind":"other","benches":[]}`, "kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][2]string{{path, base}, {base, path}} {
				err := compareBenchJSON(args[0], args[1], 0.10, io.Discard)
				if err == nil || !strings.Contains(err.Error(), tc.fail) {
					t.Errorf("compare(%s, %s) = %v, want an error naming %q", args[0], args[1], err, tc.fail)
				}
			}
		})
	}
}

// TestSuiteRowsMatchCommitted pins the suite to the committed document:
// the same row names in the same order. -compare skips rows on one side
// only, so without this a renamed or dropped row would leave the gate.
func TestSuiteRowsMatchCommitted(t *testing.T) {
	doc, err := readBenchDoc(filepath.Join("..", "..", "BENCH_planner.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, suite []string
	for _, b := range doc.Benches {
		committed = append(committed, b.Name)
	}
	for _, row := range perfSuite(1) {
		suite = append(suite, row.name)
	}
	if !slices.Equal(suite, committed) {
		t.Fatalf("suite rows %q, BENCH_planner.json rows %q", suite, committed)
	}
}

// BenchmarkSuite runs the BENCH_planner.json rows as Go benchmarks, one
// sub-benchmark per row at workers=1 (the committed document's setting),
// each reporting the row's counters. -count N output is benchstat input:
//
//	go test -run '^$' -bench BenchmarkSuite -count 5 ./cmd/sailor-bench
//	go test -run '^$' -bench 'BenchmarkSuite/replan_novel' ./cmd/sailor-bench
func BenchmarkSuite(b *testing.B) {
	for _, row := range perfSuite(1) {
		b.Run(row.name, row.bench)
	}
}
