package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// The paper's headline claims, asserted as invariants over the regenerated
// artefacts. These run at Quick scale, on the tables TestSmokeAll shares
// (quickTable); `go run ./cmd/sailor-bench -id <artefact>` prints the
// full-scale shapes.

func quickOpts() Opts { return Opts{Quick: true, SlowPlannerCap: 2 * time.Second} }

func cellF(t *testing.T, tab Table, rowMatch func([]string) bool, col int) float64 {
	t.Helper()
	for _, r := range tab.Rows {
		if rowMatch(r) {
			v, err := strconv.ParseFloat(r[col], 64)
			if err != nil {
				t.Fatalf("cell %q not numeric: %v", r[col], err)
			}
			return v
		}
	}
	t.Fatalf("no matching row in %s", tab.ID)
	return 0
}

func byLabel(col int, label string) func([]string) bool {
	return func(r []string) bool { return len(r) > col && r[col] == label }
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "fig1")
	c0 := cellF(t, tab, byLabel(0, "c0"), 2)
	c3 := cellF(t, tab, byLabel(0, "c3"), 2)
	c5 := cellF(t, tab, byLabel(0, "c5"), 2)
	c4cost := cellF(t, tab, byLabel(0, "c4"), 3)
	c6cost := cellF(t, tab, byLabel(0, "c6"), 3)
	if c3 <= c0 {
		t.Errorf("good heterogeneous c3 (%v) must beat 16-A100 c0 (%v)", c3, c0)
	}
	if c5 >= c3 {
		t.Errorf("bad heterogeneous c5 (%v) must trail c3 (%v)", c5, c3)
	}
	if c6cost <= c4cost {
		t.Errorf("cross-region c6 cost (%v) must exceed cross-zone c4 (%v)", c6cost, c4cost)
	}
}

func TestFigure2Shape(t *testing.T) {
	tab := quickTable(t, "fig2")
	last := tab.Rows[len(tab.Rows)-1]
	if last[1] != "8" {
		t.Errorf("zone A must end at 8 GPUs, got %s", last[1])
	}
	for _, r := range tab.Rows {
		if n, _ := strconv.Atoi(r[2]); n >= 8 {
			t.Errorf("zone B must never reach the 8 requested GPUs, got %d", n)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, id := range []string{"fig5a", "fig5b"} {
		tab := quickTable(t, id)
		// Sailor's mean error must be the lowest of all planners.
		sailor := cellF(t, tab, byLabel(0, "Sailor"), 3)
		for _, r := range tab.Rows {
			if r[0] == "Sailor" || r[1] == "-" {
				continue
			}
			v, err := strconv.ParseFloat(r[3], 64)
			if err != nil {
				continue
			}
			if sailor > v {
				t.Errorf("%s: Sailor mean error %v%% should undercut %s's %v%%", tab.ID, sailor, r[0], v)
			}
		}
		if sailor > 12 {
			t.Errorf("%s: Sailor mean error %v%% above the paper's ~6%% band", tab.ID, sailor)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "fig6")
	sailor := cellF(t, tab, byLabel(0, "Sailor"), 3)
	flash := cellF(t, tab, byLabel(0, "FlashFlex"), 3)
	if sailor >= flash {
		t.Errorf("heterogeneous: Sailor %v%% must beat FlashFlex %v%% (paper: 4.5%% vs 69%%)", sailor, flash)
	}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "fig7")
	// Sailor must match or beat every baseline at every size.
	var sailorRow []string
	for _, r := range tab.Rows {
		if r[0] == "Sailor" {
			sailorRow = r
		}
	}
	if sailorRow == nil {
		t.Fatal("no Sailor row")
	}
	for col := 1; col < len(sailorRow); col++ {
		s, err := strconv.ParseFloat(sailorRow[col], 64)
		if err != nil {
			t.Fatalf("Sailor cell %q", sailorRow[col])
		}
		for _, r := range tab.Rows {
			if r[0] == "Sailor" || strings.HasPrefix(r[col], "X") {
				continue
			}
			v, err := strconv.ParseFloat(r[col], 64)
			if err != nil {
				continue
			}
			// All planners share one profile source here, so an
			// exhaustive searcher (Metis) can tie Sailor within a few
			// percent on small homogeneous pools; the paper-level claim
			// is that Sailor is never meaningfully below any baseline.
			if s < v*0.97 {
				t.Errorf("col %d: Sailor %v below %s's %v", col, s, r[0], v)
			}
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "fig8a")
	// Per cluster size: Sailor >= AMP/FlashFlex; Sailor OOM count is 0.
	byPlanner := map[string][]string{}
	for _, r := range tab.Rows {
		byPlanner[r[1]] = r
	}
	s := cellF(t, tab, byLabel(1, "Sailor"), 2)
	for _, n := range []string{"AMP", "FlashFlex"} {
		r := byPlanner[n]
		if r == nil || r[2] == "X" {
			continue
		}
		v, _ := strconv.ParseFloat(r[2], 64)
		if s < v*0.999 {
			t.Errorf("Sailor %v must not trail %s's %v", s, n, v)
		}
	}
	if r := byPlanner["Sailor"]; r[4] != "0" {
		t.Errorf("Sailor emitted %s OOM plans; must be 0", r[4])
	}
	// Sailor with both types must beat Sailor-V100 (A100s are strictly
	// better than nothing).
	sv := cellF(t, tab, byLabel(1, "Sailor-V100"), 2)
	if s <= sv {
		t.Errorf("Sailor (both types) %v must beat Sailor-V100 %v", s, sv)
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "fig12")
	// Sailor must beat DTFM on throughput and cost at each size.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		dt, sr := tab.Rows[i], tab.Rows[i+1]
		if dt[1] != "DTFM" || sr[1] != "Sailor" {
			t.Fatalf("unexpected row layout: %v / %v", dt, sr)
		}
		if dt[2] == "X" {
			continue
		}
		dtput, _ := strconv.ParseFloat(dt[2], 64)
		stput, _ := strconv.ParseFloat(sr[2], 64)
		dcost, _ := strconv.ParseFloat(dt[3], 64)
		scost, _ := strconv.ParseFloat(sr[3], 64)
		if stput <= dtput {
			t.Errorf("%s: Sailor %v it/s must beat DTFM %v", dt[0], stput, dtput)
		}
		if scost >= dcost {
			t.Errorf("%s: Sailor $%v must undercut DTFM $%v", dt[0], scost, dcost)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "fig13")
	// Every deployed row satisfies the throughput floor; Sailor's cost is
	// at or near the minimum (compute cost is nearly flat in DP under
	// per-GPU-hour pricing, which lets one baseline tie or slightly
	// undercut it).
	floor := 0.05 // quick-mode constraint
	var sailorCost float64 = -1
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[1], "X") {
			continue // no plan, or OOM on deployment (Varuna's flaw)
		}
		tput, _ := strconv.ParseFloat(r[1], 64)
		if tput < floor {
			t.Errorf("%s violates the throughput floor: %v", r[0], tput)
		}
		cost, _ := strconv.ParseFloat(r[2], 64)
		if r[0] == "Sailor" {
			sailorCost = cost
		}
	}
	if sailorCost < 0 {
		t.Fatal("Sailor found no plan")
	}
	cheaper := 0
	for _, r := range tab.Rows {
		if r[0] == "Sailor" || strings.HasPrefix(r[2], "X") {
			continue
		}
		cost, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			continue
		}
		if sailorCost > cost*1.35 {
			t.Errorf("Sailor $%v too far above %s's $%v", sailorCost, r[0], cost)
		}
		if cost < sailorCost {
			cheaper++
		}
	}
	if cheaper > 2 {
		t.Errorf("%d baselines undercut Sailor's $%v; expected at most the flat-cost ties", cheaper, sailorCost)
	}
}

func TestFigure14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "fig14")
	var sailorTput float64 = -1
	for _, r := range tab.Rows {
		if r[1] == "X" {
			continue
		}
		cost, _ := strconv.ParseFloat(r[2], 64)
		if cost > 1.2 {
			t.Errorf("%s busts the $1.2 budget: $%v", r[0], cost)
		}
		if r[0] == "Sailor" {
			sailorTput, _ = strconv.ParseFloat(r[1], 64)
		}
	}
	if sailorTput < 0 {
		t.Fatal("Sailor found no plan")
	}
	for _, r := range tab.Rows {
		if r[0] == "Sailor" || r[1] == "X" {
			continue
		}
		v, _ := strconv.ParseFloat(r[1], 64)
		if sailorTput < v*0.999 {
			t.Errorf("Sailor %v it/s should lead within budget, %s has %v", sailorTput, r[0], v)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "tab1")
	if len(tab.Rows) != 10 { // 9 baselines + Sailor
		t.Fatalf("Table 1 rows = %d, want 10", len(tab.Rows))
	}
	var sailorSupport string
	for _, r := range tab.Rows {
		if r[0] == "Sailor" {
			sailorSupport = r[1]
		}
	}
	for _, want := range []string{"alloc:yes", "hetero:yes", "multizone:yes"} {
		if !strings.Contains(sailorSupport, want) {
			t.Errorf("Sailor support %q missing %q", sailorSupport, want)
		}
	}
}

func TestReconfigurationShape(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	tab := quickTable(t, "reconf")
	total := cellF(t, tab, byLabel(0, "total"), 1)
	if total < 5 || total > 40 {
		t.Errorf("reconfiguration total %vs outside the ~11s band", total)
	}
	plan := cellF(t, tab, byLabel(0, "planning"), 1)
	if plan > 2 {
		t.Errorf("planning phase %vs; paper reports 0.1s", plan)
	}
}
