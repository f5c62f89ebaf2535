package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTableString(t *testing.T) {
	tab := Table{
		ID:      "t",
		Title:   "demo",
		Headers: []string{"a", "longer-header"},
		Rows:    [][]string{{"x", "1"}, {"longer-cell", "2"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	if !strings.Contains(s, "== t: demo ==") {
		t.Errorf("missing title: %s", s)
	}
	if !strings.Contains(s, "note: a note") {
		t.Errorf("missing note: %s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// Header and both rows must be column-aligned: the second column of
	// every line starts at the same offset.
	idx := strings.Index(lines[1], "longer-header")
	for _, ln := range lines[2:4] {
		if len(ln) < idx {
			t.Fatalf("row shorter than header offset: %q", ln)
		}
	}
}

func TestErrStats(t *testing.T) {
	var e errStats
	e.add(110, 100) // 10%
	e.add(80, 100)  // 20%
	e.add(100, 100) // 0%
	e.add(0, 0)     // ignored: zero reference
	row := e.row("x")
	if row[0] != "x" {
		t.Fatal("name cell wrong")
	}
	if row[1] != "0" { // min
		t.Errorf("min = %s, want 0", row[1])
	}
	if row[2] != "10" { // median
		t.Errorf("median = %s, want 10", row[2])
	}
	if row[3] != "10" { // mean
		t.Errorf("mean = %s, want 10", row[3])
	}
	if row[4] != "20" { // max
		t.Errorf("max = %s, want 20", row[4])
	}
	if row[5] != "3" {
		t.Errorf("n = %s, want 3", row[5])
	}
	empty := (&errStats{}).row("y")
	if empty[1] != "-" {
		t.Error("empty stats should render dashes")
	}
}

func TestFmtF(t *testing.T) {
	if got := fmtF(1.500, 2); got != "1.5" {
		t.Errorf("fmtF = %q, want 1.5", got)
	}
	if got := fmtF(2.0, 2); got != "2" {
		t.Errorf("fmtF = %q, want 2", got)
	}
	if got := fmtF(0.123456, 3); got != "0.123" {
		t.Errorf("fmtF = %q", got)
	}
}

// TestFmtSeconds: search-time cells keep three significant digits, so a
// search of a few milliseconds no longer prints as "0s".
func TestFmtSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{4567 * time.Microsecond, "0.00457s"},
		{390 * time.Millisecond, "0.39s"},
		{12345 * time.Millisecond, "12.3s"},
		{0, "0s"},
	} {
		if got := fmtSeconds(tc.d); got != tc.want {
			t.Errorf("fmtSeconds(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestConstrainedTitlesSayWhatRuns: the fig13/fig14 titles state the
// constraint and the per-zone counts the quick run actually uses.
func TestConstrainedTitlesSayWhatRuns(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for id, want := range map[string]string{
		"fig13": "Min cost s.t. throughput >= 0.05 it/s, 2 zones x (32 A100 + 32 V100) (paper Fig. 13)",
		"fig14": "Max throughput s.t. cost <= 1.2 USD/iter, 2 zones x (32 A100 + 32 V100) (paper Fig. 14)",
	} {
		if got := quickTable(t, id).Title; got != want {
			t.Errorf("%s title = %q, want %q", id, got, want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every evaluation artefact of the paper has an entry.
	want := []string{
		"fig1", "fig2", "fig3", "fig5a", "fig5b", "fig6", "fig7",
		"fig8a", "fig8b", "fig9a", "fig9b", "fig10", "fig11", "fig12",
		"fig13", "fig14", "tab1", "tab2", "tab3", "scale", "reconf",
		"replan",
	}
	for _, id := range want {
		if Registry[id] == nil {
			t.Errorf("registry missing %s", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("IDs not sorted")
		}
	}
}
