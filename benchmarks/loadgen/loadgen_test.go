package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := make([]time.Duration, 10)
	for i := range ten {
		ten[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 5}, {95, 10}, {90, 9}, {91, 10}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(ten, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]time.Duration{7}, 50); got != 7 {
		t.Errorf("percentile of one sample = %d, want it", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	// An odd count's median is the middle sample, never an interpolation.
	if got := percentile([]time.Duration{1, 2, 100}, 50); got != 2 {
		t.Errorf("percentile(1,2,100; 50) = %d, want 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "record", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 2, Name: "write", StartNS: 15, EndNS: 20},
		{ID: 4, Parent: 2, Name: "sync", StartNS: 20, EndNS: 55},
		// Overlapping siblings count once; a child past its parent's end is clipped.
		{ID: 5, Parent: 1, Name: "record", StartNS: 50, EndNS: 70},
		{ID: 6, Parent: 1, Name: "late", StartNS: 90, EndNS: 130},
		{ID: 7, Name: "root", StartNS: 200, EndNS: 230},
	}
	got := selfTimes(spans)
	want := map[string]spanStats{
		"root":   {count: 2, total: 130, self: 100 - 60 - 10 + 30}, // children cover [10,70] and [90,100]
		"record": {count: 2, total: 70, self: 50 - 40 + 20},
		"write":  {count: 1, total: 5, self: 5},
		"sync":   {count: 1, total: 35, self: 35},
		"late":   {count: 1, total: 40, self: 40},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("selfTimes[%s] = %+v, want %+v", name, got[name], w)
		}
	}
	// A tracer nests by call order and numbers ops by root span.
	tr := newTracer()
	a := tr.begin("root")
	b := tr.begin("child")
	tr.end(b)
	tr.end(a)
	c := tr.begin("root")
	tr.end(c)
	if tr.spans[1].Parent != a || tr.spans[1].Op != 1 || tr.spans[2].Parent != 0 || tr.spans[2].Op != 2 {
		t.Errorf("tracer nesting = %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("ignored")) // the untraced run's tracer
}

// render is a workload's op sequence as text.
func render(plans []clientPlan) string {
	var out string
	for i, p := range plans {
		out += fmt.Sprintf("client %d jobs %v think %v background %v\n", i, p.jobs, p.think, p.background)
		for _, o := range append(append([]op(nil), p.warm...), p.ops...) {
			pool := ""
			if o.pool != nil {
				pool = o.pool.String()
			}
			out += fmt.Sprintf("%d %d %q %v %+v %+v\n", o.kind, o.job, pool, o.obj, o.cons, o.event)
		}
	}
	return out
}

func TestSeedFixesOpSequence(t *testing.T) {
	for _, wl := range workloads {
		n := wl.opsPerSecond
		a, b, c := render(wl.build(7, n)), render(wl.build(7, n)), render(wl.build(8, n))
		if a != b {
			t.Errorf("%s: the same seed generated two different op sequences", wl.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same op sequence", wl.name)
		}
		timed := 0
		for _, p := range wl.build(7, n) {
			if !p.background {
				timed += len(p.ops)
			}
		}
		if timed != n {
			t.Errorf("%s: %d timed foreground ops, want %d", wl.name, timed, n)
		}
	}
	// cold-hetero's pools never repeat, warm-up included.
	seen := map[string]bool{}
	for _, p := range buildColdHetero(1, 600) {
		for _, o := range append(append([]op(nil), p.warm...), p.ops...) {
			if k := o.pool.String(); seen[k] {
				t.Fatalf("cold-hetero repeats pool %q", k)
			} else {
				seen[k] = true
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at a hundredth of its op count
// against the in-process stack — the end-to-end sequence, then the traced
// run and every layer replay — and checks that each named metric comes out
// as a finite number and the predicted bypasses hold.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		wl.opsPerSecond = wl.opsPerSecond * defaultSeconds / 100
		t.Run(wl.name, func(t *testing.T) {
			h := &harness{root: t.TempDir(), build: t.TempDir()}
			defer h.cleanup()
			b := &bench{h: h, seed: 1, seconds: 1}
			launch := func(dir string) (daemon, error) { return launchInproc(dir, stackShims{}) }
			rc := runConfig{wl: wl, seed: b.seed, n: b.ops(wl), h: h, launch: launch, connect: dialTCP, setupReps: 1, recoveryReps: 1}
			run, err := rc.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := run.checkAccuracy(); err != nil {
				t.Fatal(err)
			}
			if run.tally.failed > 0 {
				t.Fatalf("%d of %d ops failed: %v", run.tally.failed, run.tally.attempted, run.tally.failures)
			}
			finite := func(defs []metricDef, m map[string]float64) {
				for _, d := range defs {
					if v, ok := m[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v (measured: %v), want a finite number", d.name, v, ok)
					}
				}
			}
			finite(endToEnd, run.metrics)
			for _, d := range endToEnd {
				if run.metrics[d.name] == 0 {
					t.Errorf("end-to-end metric %s reads 0", d.name)
				}
			}
			lo, err := b.traced(wl, run)
			if err != nil {
				t.Fatal(err)
			}
			if lo.tally.failed > 0 {
				t.Fatalf("traced run: %v", lo.tally.failures)
			}
			finite(perLayer, lo.metrics)
			if _, err := os.Stat(filepath.Join(h.root, "benchmarks", "out", "trace-"+wl.name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			printLayers(io.Discard, wl, lo)
			if records := lo.metrics["persist.records_per_op"]; (records > 0) != wl.durable {
				t.Errorf("persist.records_per_op = %v on a workload with durable=%v", records, wl.durable)
			}
			if wl.name == "cold-hetero" && lo.metrics["service.spec_lookups"] != 0 {
				t.Errorf("cold-hetero consulted the speculation cache %v times", lo.metrics["service.spec_lookups"])
			}
			if wl.durable && (lo.metrics["persist.fsync_us_per_record"] <= 0 || lo.metrics["fleet.apply_us"] <= 0) {
				t.Errorf("durable fleet workload measured no fsync (%v us) or no ledger apply (%v us)",
					lo.metrics["persist.fsync_us_per_record"], lo.metrics["fleet.apply_us"])
			}
		})
	}
}

// TestWindowCap: a window that outlasts its cap stops issuing ops and still
// reports what it measured.
func TestWindowCap(t *testing.T) {
	wl, _ := workloadByName("warm-churn")
	h := &harness{root: t.TempDir(), build: t.TempDir()}
	defer h.cleanup()
	launch := func(dir string) (daemon, error) { return launchInproc(dir, stackShims{}) }
	rc := runConfig{wl: wl, seed: 1, n: 4000, h: h, launch: launch, connect: dialTCP, setupReps: 1, windowCap: 50 * time.Millisecond}
	run, err := rc.run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(run.tally.lat); got == 0 || got >= rc.n {
		t.Errorf("capped window issued %d of %d ops, want some but not all", got, rc.n)
	}
	if run.tally.failed > 0 {
		t.Errorf("capped window failed ops: %v", run.tally.failures)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package the
// same: workloads, metric names, units, directions, bounds, run length.
func TestBenchmarkJSON(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, loadgen's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in loadgen", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, loadgen has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if want := fmt.Sprintf("%d ops/s of ", w.opsPerSecond); !strings.HasPrefix(w.why, want) {
			t.Errorf("%s: why = %q, want it to start with its op rate %q", w.name, w.why, want)
		}
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in loadgen", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better(d) {
				t.Errorf("%s metric %d = %+v, loadgen has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match loadgen's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
