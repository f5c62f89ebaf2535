package sailor

// Resilience tests: overload shedding and deadline degradation at the
// Service layer, and the client retry loop (typed-error classification,
// seeded backoff, automatic re-dial) against stub rpc servers. The chaos
// e2e in chaos_test.go composes all of these with scripted transport and
// journal faults.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/persist"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// TestServiceOverloadShedding: once MaxConcurrent slots are busy and
// MaxQueued requests wait, the next request is shed immediately with the
// typed ErrOverloaded instead of joining an unbounded queue.
func TestServiceOverloadShedding(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 1, MaxQueued: 1})
	if err := svc.OpenJob("j", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	svc.sem <- struct{}{} // occupy the only planner slot
	defer func() { <-svc.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	go func() {
		_, err := svc.Plan(ctx, "j", NewPool(), MaxThroughput, Constraints{})
		queuedErr <- err
	}()
	waitFor(t, func() bool { return svc.queued.Load() == 1 })

	// The queue is full: the next request sheds with the typed error.
	_, err := svc.Plan(context.Background(), "j", NewPool(), MaxThroughput, Constraints{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("plan beyond the queue bound = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, rpc.ErrOverloaded) {
		t.Errorf("shed error does not match rpc.ErrOverloaded — it would lose its wire code")
	}

	cancel()
	if err := <-queuedErr; err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("queued plan after cancel = %v, want cancellation error", err)
	}
	if q := svc.queued.Load(); q != 0 {
		t.Errorf("queued = %d after drain, want 0", q)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Overloaded != 1 {
		t.Errorf("Stats.Overloaded = %d, want 1", st.Overloaded)
	}
}

// TestServiceQueueCancellationNoSlotLeak: N requests queue behind a full
// semaphore, half are cancelled, and after the slot frees the survivors
// all complete — no planner slot or queue counter leaks.
func TestServiceQueueCancellationNoSlotLeak(t *testing.T) {
	const queued = 6
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 1, MaxQueued: queued})
	if err := svc.OpenJob("j", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	pool := replayPools(t, "preemption-storm", 1, 1)[0]
	svc.sem <- struct{}{} // hold the only slot so all requests queue

	type outcome struct {
		cancelled bool
		err       error
	}
	results := make(chan outcome, queued)
	cancels := make([]context.CancelFunc, queued)
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		wg.Add(1)
		go func(ctx context.Context, cancelled bool) {
			defer wg.Done()
			_, err := svc.Plan(ctx, "j", pool, MaxThroughput, Constraints{})
			results <- outcome{cancelled: cancelled, err: err}
		}(ctx, i%2 == 0)
	}
	waitFor(t, func() bool { return svc.queued.Load() == queued })

	for i := 0; i < queued; i += 2 {
		cancels[i]()
	}
	waitFor(t, func() bool { return svc.queued.Load() == queued/2 })
	<-svc.sem // free the slot; the survivors run one at a time
	wg.Wait()
	for i := 1; i < queued; i += 2 {
		cancels[i]()
	}

	for i := 0; i < queued; i++ {
		o := <-results
		if o.cancelled && (o.err == nil || !strings.Contains(o.err.Error(), "cancelled")) {
			t.Errorf("cancelled request: err = %v, want cancellation", o.err)
		}
		if !o.cancelled && o.err != nil {
			t.Errorf("surviving request failed: %v", o.err)
		}
	}
	if q := svc.queued.Load(); q != 0 {
		t.Errorf("queued = %d after drain, want 0", q)
	}
	if n := len(svc.sem); n != 0 {
		t.Errorf("%d planner slots still held after drain, want 0", n)
	}
}

// TestServicePlanDegradesToIncumbent: a search cut off by its deadline
// answers with the job's last successful plan re-estimated and marked
// Degraded, instead of surfacing the deadline error.
func TestServicePlanDegradesToIncumbent(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1})
	if err := svc.OpenJob("j", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	pool := replayPools(t, "preemption-storm", 1, 1)[0]
	warm, err := svc.Plan(context.Background(), "j", pool, MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := svc.Plan(ctx, "j", pool, MaxThroughput, Constraints{})
	if err != nil {
		t.Fatalf("deadline-cut plan with an incumbent = %v, want degraded result", err)
	}
	if !res.Degraded {
		t.Fatal("deadline-cut plan returned Degraded=false")
	}
	if res.Plan.String() != warm.Plan.String() {
		t.Errorf("degraded plan differs from the incumbent:\n%s\nvs\n%s", res.Plan, warm.Plan)
	}
	if canon := canonicalResult(t, res); !strings.Contains(canon, `"degraded":true`) {
		t.Errorf("degraded flag lost on the wire codec: %s", canon)
	}
	st, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 1 {
		t.Errorf("Stats.Degraded = %d, want 1", st.Degraded)
	}

	// Cancellation (the caller walked away) does not degrade.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := svc.Plan(cctx, "j", pool, MaxThroughput, Constraints{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled plan = %v, want context.Canceled", err)
	}

	// A job with no incumbent surfaces the deadline error.
	if err := svc.OpenJob("fresh", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Plan(ctx, "fresh", pool, MaxThroughput, Constraints{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-cut plan without an incumbent = %v, want DeadlineExceeded", err)
	}

	// An incumbent the request's pool cannot fit is not a deployable
	// answer: the deadline error surfaces.
	zone := GCPZone("us-central1", 'a')
	if err := svc.OpenJob("big", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	big, err := svc.Plan(context.Background(), "big", NewPool().Set(zone, A100, 32), MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	small := NewPool().Set(zone, A100, 8)
	if small.CanFit(big.Plan) {
		t.Fatalf("incumbent %s fits the 8-GPU pool; the case needs one that does not", big.Plan)
	}
	if res, err := svc.Plan(ctx, "big", small, MaxThroughput, Constraints{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-cut plan on a pool the incumbent overflows = (%d GPUs, degraded=%v, %v), want DeadlineExceeded",
			res.Plan.GPUCount(), res.Degraded, err)
	}
	if res, err := svc.Replan(ctx, "big", big.Plan, small, MaxThroughput, Constraints{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-cut replan on a pool the incumbent overflows = (%d GPUs, degraded=%v, %v), want DeadlineExceeded",
			res.Plan.GPUCount(), res.Degraded, err)
	}

	// Fleet mode: once an availability event breaks the job's lease, its
	// incumbent holds no capacity and must not come back as a degraded plan.
	led := NewLedger(NewPool().Set(zone, A100, 32))
	fl := NewService(ServiceConfig{Workers: 1, Fleet: led})
	if err := fl.OpenJob("f", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	leased, err := fl.Plan(context.Background(), "f", nil, MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if leased.Plan.GPUCount() <= 8 {
		t.Fatalf("fleet plan uses %d GPUs; the case needs one the shrunk fleet cannot hold", leased.Plan.GPUCount())
	}
	if _, err := fl.FleetEvent(TraceEvent{At: time.Hour, Zone: zone, GPU: A100, Delta: -24}); err != nil {
		t.Fatal(err)
	}
	if led.Held("f") {
		t.Fatal("the -24 event left the 32-GPU lease standing")
	}
	if res, err := fl.Replan(ctx, "f", leased.Plan, nil, MaxThroughput, Constraints{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-cut fleet replan after the lease broke = (%d GPUs, degraded=%v, %v), want DeadlineExceeded",
			res.Plan.GPUCount(), res.Degraded, err)
	}
	if led.Held("f") {
		t.Error("a deadline-cut replan acquired a lease")
	}
	if st, _ := svc.Stats(); st.Degraded != 1 {
		t.Errorf("Stats.Degraded = %d after the refused cases, want 1", st.Degraded)
	}
}

// TestDeadlineDegradesOverWire: a per-request deadline crosses the rpc
// envelope, expires while the request waits for a planner slot, and the
// daemon answers with the warm incumbent marked Degraded — the full
// client → rpc → Service degradation path, deterministic because the
// occupied semaphore guarantees the deadline fires first.
func TestDeadlineDegradesOverWire(t *testing.T) {
	svc := NewService(ServiceConfig{Workers: 1, MaxConcurrent: 1})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, svc)
	go srv.Serve()
	defer srv.Close()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.OpenJob("j", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	pool := replayPools(t, "preemption-storm", 1, 1)[0]
	warm, err := c.Plan(context.Background(), "j", pool, MaxThroughput, Constraints{})
	if err != nil {
		t.Fatal(err)
	}

	svc.sem <- struct{}{} // wedge the planner so the deadline always wins
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	res, err := c.Plan(ctx, "j", pool, MaxThroughput, Constraints{})
	<-svc.sem
	if err != nil {
		t.Fatalf("deadline-cut plan over the wire = %v, want degraded result", err)
	}
	if !res.Degraded {
		t.Fatal("wire plan returned Degraded=false, want the incumbent marked Degraded")
	}
	if res.Plan.String() != warm.Plan.String() {
		t.Errorf("degraded wire plan differs from the incumbent")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 1 {
		t.Errorf("Stats.Degraded over the wire = %d, want 1", st.Degraded)
	}
}

// TestJournalErrorSurfacesInStats: a failed journal append flips the
// sticky JournalError stat (over the wire), and a Rotate — the snapshot
// that re-establishes durability — clears it.
func TestJournalErrorSurfacesInStats(t *testing.T) {
	sched := &chaos.Schedule{
		Name: "journal-stat",
		Faults: []chaos.Rule{
			{ID: "fail-2nd-append", Target: chaos.TargetJournal, Nth: 2, Action: chaos.ActionFail},
		},
	}
	inj, err := chaos.NewInjector(sched)
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := persist.Open(t.TempDir(), persist.Config{WrapJournal: inj.WrapJournal})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	svc := NewService(ServiceConfig{Workers: 1})
	if err := store.Rotate(svc.PersistState()); err != nil {
		t.Fatal(err)
	}
	svc.SetRecorder(store)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, svc)
	go srv.Serve()
	defer srv.Close()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.OpenJob("a", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.JournalError != "" {
		t.Fatalf("JournalError = %q before the fault, want empty", st.JournalError)
	}

	// The second append fails: the op itself succeeds, durability degrades,
	// and the sticky error surfaces in the stats.
	if err := c.OpenJob("b", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.JournalError == "" {
		t.Fatal("JournalError empty after a failed append, want the sticky error")
	}
	if !strings.Contains(st.JournalError, "fail-2nd-append") {
		t.Errorf("JournalError = %q, want the chaos rule named", st.JournalError)
	}

	// Rotate writes a fresh snapshot and opens a new journal generation:
	// durability is re-established and the stat clears.
	if err := store.Rotate(svc.PersistState()); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.JournalError != "" {
		t.Errorf("JournalError = %q after Rotate, want empty", st.JournalError)
	}
}

// stubServer runs a bare rpc server whose Stats/CloseJob handlers fail a
// scripted number of times before succeeding — the harness the client
// retry tests drive.
func stubServer(t *testing.T, failures int) (addr string, calls *atomic.Int32, shutdown func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(lis)
	calls = &atomic.Int32{}
	srv.Handle(wire.MethodStats, func(context.Context, json.RawMessage) (any, error) {
		if calls.Add(1) <= int32(failures) {
			return nil, fmt.Errorf("planner queue full: %w", rpc.ErrOverloaded)
		}
		return wire.StatsResponse{V: wire.Version, Stats: wire.ServiceStats{Requests: 7}}, nil
	})
	srv.Handle(wire.MethodCloseJob, func(_ context.Context, body json.RawMessage) (any, error) {
		if calls.Add(1) <= int32(failures) {
			return nil, fmt.Errorf("planner queue full: %w", rpc.ErrOverloaded)
		}
		return wire.CloseJobResponse{V: wire.Version}, nil
	})
	go srv.Serve()
	return lis.Addr().String(), calls, srv.Close
}

// fastRetry is a test retry policy with millisecond backoff.
func fastRetry(mutating bool) DialConfig {
	return DialConfig{Retry: RetryPolicy{
		MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond,
		RetryMutating: mutating,
	}}
}

// TestClientRetriesOverloaded: an idempotent call that hits ErrOverloaded
// backs off and retries until the server admits it.
func TestClientRetriesOverloaded(t *testing.T) {
	addr, calls, shutdown := stubServer(t, 2)
	defer shutdown()
	c, err := DialWith(addr, fastRetry(false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats after transient overload = %v, want success", err)
	}
	if st.Requests != 7 {
		t.Errorf("Stats.Requests = %d, want 7", st.Requests)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3 (2 shed + 1 admitted)", got)
	}
}

// TestClientRetrySendsSameBody: a retried idempotent call encodes its
// request once, so every attempt carries byte-identical bodies — the
// bytes a fresh encoding of the request gives.
func TestClientRetrySendsSameBody(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(lis)
	var mu sync.Mutex
	var bodies [][]byte
	srv.Handle(wire.MethodReplan, func(_ context.Context, body json.RawMessage) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		bodies = append(bodies, append([]byte(nil), body...))
		if len(bodies) <= 2 {
			return nil, fmt.Errorf("planner queue full: %w", rpc.ErrOverloaded)
		}
		return wire.PlanResponse{V: wire.Version, Result: wire.PlanResult{Explored: 3}}, nil
	})
	go srv.Serve()
	defer srv.Close()
	c, err := DialWith(lis.Addr().String(), fastRetry(false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	za := GCPZone("us-central1", 'a')
	prev := Plan{MicroBatchSize: 2, Stages: []StagePlan{{NumLayers: 24, Replicas: []StageReplica{
		{GPU: A100, TP: 1, Zone: za}, {GPU: A100, TP: 1, Zone: za}}}}}
	pool := NewPool().Set(za, A100, 8)
	res, err := c.Replan(context.Background(), "job", prev, pool, MaxThroughput, Constraints{MinThroughput: 0.5})
	if err != nil || res.Explored != 3 {
		t.Fatalf("Replan after two sheds = %+v, %v", res, err)
	}
	want, err := json.Marshal(wire.ReplanRequest{V: wire.Version, Job: "job", Prev: wire.FromPlan(prev),
		Pool: wire.FromPool(pool), Objective: MaxThroughput.String(), Constraints: wire.Constraints{MinThroughput: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(bodies))
	}
	for i, b := range bodies {
		if string(b) != string(want) {
			t.Errorf("attempt %d sent\n%s\nwant\n%s", i+1, b, want)
		}
	}
}

// TestClientRetryExhaustion: a persistently overloaded server exhausts
// MaxAttempts and the final error stays typed.
func TestClientRetryExhaustion(t *testing.T) {
	addr, calls, shutdown := stubServer(t, 1000)
	defer shutdown()
	c, err := DialWith(addr, fastRetry(false))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Stats()
	if !errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("exhausted retries = %v, want ErrOverloaded preserved", err)
	}
	if !strings.Contains(err.Error(), "after 4 attempts") {
		t.Errorf("error %q does not report the attempt count", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d attempts, want 4", got)
	}
}

// TestClientMutatingOptIn: mutating calls return the first retryable
// error by default and join the retry loop only under RetryMutating.
func TestClientMutatingOptIn(t *testing.T) {
	addr, calls, shutdown := stubServer(t, 1)
	defer shutdown()
	c, err := DialWith(addr, fastRetry(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil { // idempotent: retried past the failure
		t.Fatalf("idempotent call = %v, want retried success", err)
	}
	c.Close()

	calls.Store(0)
	c, err = DialWith(addr, fastRetry(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CloseJob("j"); !errors.Is(err, rpc.ErrOverloaded) {
		t.Fatalf("mutating call without opt-in = %v, want immediate ErrOverloaded", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts for a non-opted mutating call, want 1", got)
	}
	c.Close()

	calls.Store(0)
	c, err = DialWith(addr, fastRetry(true))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CloseJob("j"); err != nil {
		t.Fatalf("mutating call with RetryMutating = %v, want retried success", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d attempts, want 2", got)
	}
}

// TestClientRedialsAfterRestart: when the daemon restarts on the same
// address, the next idempotent call re-dials transparently.
func TestClientRedialsAfterRestart(t *testing.T) {
	addr, _, shutdown := stubServer(t, 0)
	c, err := DialWith(addr, DialConfig{Retry: RetryPolicy{
		MaxAttempts: 8, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	shutdown()

	// Restart on the same port while the client retries in the background.
	restarted := make(chan func(), 1)
	go func() {
		for i := 0; ; i++ {
			lis, err := net.Listen("tcp", addr)
			if err != nil {
				if i > 100 {
					t.Error(err)
					restarted <- func() {}
					return
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			srv := rpc.NewServer(lis)
			srv.Handle(wire.MethodStats, func(context.Context, json.RawMessage) (any, error) {
				return wire.StatsResponse{V: wire.Version, Stats: wire.ServiceStats{Requests: 42}}, nil
			})
			go srv.Serve()
			restarted <- srv.Close
			return
		}
	}()
	defer (<-restarted)()

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats across a daemon restart = %v, want re-dialed success", err)
	}
	if st.Requests != 42 {
		t.Errorf("Stats.Requests = %d, want 42 (the restarted daemon's answer)", st.Requests)
	}
}

// TestRetryableClassification: only transport- and load-shaped errors
// retry; application errors and the caller's own context never do.
func TestRetryableClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{rpc.ErrConnectionLost, true},
		{rpc.ErrServerClosed, true},
		{rpc.ErrOverloaded, true},
		{fmt.Errorf("queue full (9 waiting): %w", rpc.ErrOverloaded), true},
		{context.DeadlineExceeded, false},
		{context.Canceled, false},
		{errors.New("sailor: job \"x\" not open"), false},
		{nil, false},
	} {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestBackoffSeededJitter: backoff doubles to the cap, jitters within
// [d/2, d), and replays identically for the same seed.
func TestBackoffSeededJitter(t *testing.T) {
	mk := func(seed uint64) *Client {
		cfg := DialConfig{Retry: RetryPolicy{
			MaxAttempts: 8, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, Seed: seed,
		}}.withDefaults()
		return &Client{cfg: cfg, rng: rand.New(rand.NewSource(int64(cfg.Retry.Seed)))}
	}
	a, b := mk(7), mk(7)
	caps := []time.Duration{20, 40, 80, 100, 100, 100}
	for i := 1; i <= len(caps); i++ {
		da, db := a.backoff(i), b.backoff(i)
		if da != db {
			t.Errorf("attempt %d: same seed drew %v vs %v", i, da, db)
		}
		d := caps[i-1] * time.Millisecond
		if da < d/2 || da >= d {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", i, da, d/2, d)
		}
	}
	if c := mk(8); c.backoff(1) == a.backoff(7) {
		t.Error("different seeds drew the same jitter sequence (suspicious)")
	}
}

// waitFor polls until cond holds or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
