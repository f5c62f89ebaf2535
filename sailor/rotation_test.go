package sailor

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/persist"
)

// stormChain chains preemption-storm traces (base 32) into n capacity moves
// on one zone of A100s, each the delta from the fleet's current level, so
// the chain replays against one ledger without drift: the step stream of
// the fleet-durable benchmark.
func stormChain(n int) []TraceEvent {
	zone := GCPZone("us-central1", 'a')
	out := make([]TraceEvent, 0, n)
	level := 0
	for seed := int64(0); len(out) < n; seed++ {
		ev := ScenarioPreemptionStorm().TraceWith(seed, ScenarioOpts{Base: 32}).Events
		cur := 0
		for i := 0; i < len(ev) && len(out) < n; {
			for at := ev[i].At; i < len(ev) && ev[i].At == at; i++ {
				cur = max(cur+ev[i].Delta, 0)
			}
			if cur != level {
				out = append(out, TraceEvent{At: time.Duration(len(out)) * time.Minute, Zone: zone, GPU: A100, Delta: cur - level})
				level = cur
			}
		}
	}
	return out
}

// liveGeneration reads a data dir between calls, when exactly one
// generation is live: its snapshot's name, the snapshot's size, and the
// journal's size and self-rotation bound.
func liveGeneration(t *testing.T, dir string) (snapshot string, snap, journal, bound int64) {
	t.Helper()
	size := func(pattern string) (string, int64) {
		names, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(names) != 1 {
			t.Fatalf("%s in %s: %v %v, want exactly one", pattern, dir, names, err)
		}
		fi, err := os.Stat(names[0])
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(names[0]), fi.Size()
	}
	snapshot, snap = size("snapshot-*.json")
	_, journal = size("journal-*.wal")
	return snapshot, snap, journal, max(persist.RotateRatio*snap, persist.RotateMinBytes)
}

// boundChecker asserts the self-rotation bound after each call of a
// sequential test loop and runs checkRecovers after every rotation, which
// it notes as the ledger version (fleet mode) or the call count.
type boundChecker struct {
	t      *testing.T
	svc    *Service
	dir    string
	gen    string
	calls  uint64
	points []uint64
}

func newBoundChecker(t *testing.T, svc *Service, dir string) *boundChecker {
	gen, _, _, _ := liveGeneration(t, dir)
	return &boundChecker{t: t, svc: svc, dir: dir, gen: gen}
}

// check runs after every journaling call. The journal is below its bound
// between calls, so inside a call it exceeded the bound by at most that
// call's records.
func (b *boundChecker) check() {
	b.t.Helper()
	b.calls++
	gen, snap, journal, bound := liveGeneration(b.t, b.dir)
	if journal >= bound {
		b.t.Fatalf("call %d left %d journal bytes over a %d-byte snapshot, bound %d", b.calls, journal, snap, bound)
	}
	if gen == b.gen {
		return
	}
	b.gen = gen
	point := b.calls
	if st, err := b.svc.FleetStats(); err == nil {
		point = st.Version
	}
	b.points = append(b.points, point)
	checkRecovers(b.t, b.svc, b.dir)
}

// TestDurableJournalStaysBounded drives a durable fleet of eight A100 jobs
// through 4 000 chained preemption-storm steps, each a FleetEvent and a
// Rebalance: about 3 MB of journal, so the real bound is crossed at least
// three times. The journal stays bounded, the data dir recovers to the live
// state after every rotation, and the rotation points (ledger versions) are
// the same at workers=1 and workers=8.
func TestDurableJournalStaysBounded(t *testing.T) {
	const jobs = 8
	events := stormChain(4000)
	ctx := context.Background()
	var ref []uint64
	for _, workers := range []int{1, 8} {
		led := NewLedger(NewPool())
		led.SetJobCap(8)
		svc, dir, _ := openDurable(t, ServiceConfig{Workers: workers, MaxConcurrent: 2, Fleet: led})
		b := newBoundChecker(t, svc, dir)
		for i := 0; i < jobs; i++ {
			if err := svc.OpenJob(fmt.Sprintf("fleet-%d", i), OPT350M(), []GPUType{A100}, jobs-i); err != nil {
				t.Fatal(err)
			}
			b.check()
		}
		for _, ev := range events {
			if _, err := svc.FleetEvent(ev); err != nil {
				t.Fatal(err)
			}
			b.check()
			if _, err := svc.Rebalance(ctx); err != nil {
				t.Fatal(err)
			}
			b.check()
		}
		t.Logf("workers=%d: %d rotations at ledger versions %v", workers, len(b.points), b.points)
		if len(b.points) < 3 {
			t.Fatalf("workers=%d: %d rotations over %d steps, want >= 3", workers, len(b.points), len(events))
		}
		if ref == nil {
			ref = b.points
		} else if !slices.Equal(b.points, ref) {
			t.Errorf("rotation points at workers=%d: %v, want workers=1's %v", workers, b.points, ref)
		}
	}
}

// TestDurableReplanJournalStaysBounded: outside fleet mode each warm Replan
// journals a job-plan record, and that path stays bounded too.
func TestDurableReplanJournalStaysBounded(t *testing.T) {
	const jobs = 4
	svc, dir, _ := openDurable(t, ServiceConfig{Workers: 1, MaxConcurrent: 2})
	b := newBoundChecker(t, svc, dir)
	pools := ScenarioPreemptionStorm().TraceWith(1, ScenarioOpts{Base: 32}).DistinctPools()
	prev := make([]Plan, jobs)
	for i := range prev {
		if err := svc.OpenJob(fmt.Sprintf("job-%d", i), OPT350M(), []GPUType{A100}, 0); err != nil {
			t.Fatal(err)
		}
		b.check()
	}
	ctx := context.Background()
	for i := 0; len(b.points) == 0; i++ {
		if i == 20000 {
			t.Fatalf("no rotation after %d replans", i)
		}
		j, pool := i%jobs, pools[(i/jobs)%len(pools)]
		if pool.TotalGPUs() == 0 {
			continue
		}
		res, err := svc.Replan(ctx, fmt.Sprintf("job-%d", j), prev[j], pool, MaxThroughput, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		prev[j] = res.Plan
		b.check()
	}
}

// TestDurableRotationRaces (run under -race): concurrent FleetEvent,
// Rebalance, OpenJob/CloseJob and fleet Plan calls carry the journal across
// a self-rotation, and the data dir then recovers to the live state. The
// journal is first padded to just under its bound with open/close pairs of
// a scratch job, so the concurrent phase is what crosses it.
func TestDurableRotationRaces(t *testing.T) {
	const jobs, rounds = 4, 120
	led := NewLedger(NewPool())
	led.SetJobCap(8)
	svc, dir, _ := openDurable(t, ServiceConfig{Workers: 1, MaxConcurrent: 2, Fleet: led})
	for i := 0; i < jobs; i++ {
		if err := svc.OpenJob(fmt.Sprintf("fleet-%d", i), OPT350M(), []GPUType{A100}, jobs-i); err != nil {
			t.Fatal(err)
		}
	}
	gen, _, journal, bound := liveGeneration(t, dir)
	for ; journal < bound-32<<10; _, _, journal, _ = liveGeneration(t, dir) {
		if err := svc.OpenJob("pad", OPT350M(), []GPUType{A100}, 0); err != nil {
			t.Fatal(err)
		}
		if err := svc.CloseJob("pad"); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	lifecycle := func(err error) bool {
		return err == nil || errors.Is(err, ErrLeaseConflict) || strings.Contains(err.Error(), "not open") ||
			strings.Contains(err.Error(), "already open") || strings.Contains(err.Error(), "no free capacity") ||
			strings.Contains(err.Error(), "closed while planning")
	}
	events := stormChain(rounds)
	var wg sync.WaitGroup
	for g, run := range []func(i int) error{
		func(i int) error { _, err := svc.FleetEvent(events[i]); return err },
		func(int) error { _, err := svc.Rebalance(ctx); return err },
		func(int) error { return svc.OpenJob("life", OPT350M(), []GPUType{A100}, 0) },
		func(int) error { return svc.CloseJob("life") },
		func(i int) error {
			_, err := svc.Plan(ctx, fmt.Sprintf("fleet-%d", i%jobs), nil, MaxThroughput, Constraints{})
			return err
		},
	} {
		wg.Add(1)
		go func(g int, run func(int) error) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := run(i); !lifecycle(err) {
					t.Errorf("racer %d call %d: %v", g, i, err)
					return
				}
			}
		}(g, run)
	}
	wg.Wait()
	if now, _, _, _ := liveGeneration(t, dir); now == gen {
		t.Fatal("the concurrent phase never rotated the journal")
	}
	if err := led.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	checkRecovers(t, svc, dir)
}
