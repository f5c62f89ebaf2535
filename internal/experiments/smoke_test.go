package experiments

import (
	"testing"
	"time"
)

// quickTables memoizes each artefact's Quick-scale regeneration for the
// test binary, so TestSmokeAll and the Test*Shape tests assert over one
// table per artefact instead of rebuilding it. The package's tests run
// sequentially, so the map needs no lock.
var quickTables = map[string]struct {
	tab Table
	err error
}{}

// quickTable returns artefact id regenerated at quickOpts, building it on
// first use.
func quickTable(t *testing.T, id string) Table {
	t.Helper()
	r, ok := quickTables[id]
	if !ok {
		r.tab, r.err = Registry[id](quickOpts())
		quickTables[id] = r
	}
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.tab
}

// TestSmokeAll regenerates every artefact at Quick scale and checks it is
// well-formed. Run with -v to see the tables.
func TestSmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke skipped in -short mode")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			start := time.Now()
			tab := quickTable(t, id)
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			if len(tab.Headers) == 0 {
				t.Fatalf("%s: no headers", id)
			}
			for i, r := range tab.Rows {
				if len(r) != len(tab.Headers) {
					t.Fatalf("%s row %d: %d cells, want %d", id, i, len(r), len(tab.Headers))
				}
			}
			t.Logf("%s ready in %v\n%s", id, time.Since(start).Round(time.Millisecond), tab)
		})
	}
}
