package sailor

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// startTestServer hosts a fresh Service on a loopback listener.
func startTestServer(t *testing.T, cfg ServiceConfig) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, NewService(cfg))
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, lis.Addr().String()
}

// TestWireDeterminism is the acceptance test of the determinism contract:
// plan and replan responses served over the wire are byte-identical (on
// the wire codec, SearchTime zeroed) to in-process System.Plan and
// System.Replan for the same request history — including the Explored and
// CacheHits telemetry — at more than one worker count.
func TestWireDeterminism(t *testing.T) {
	pools := replayPools(t, "preemption-storm", 1, 5)
	for _, workers := range []int{1, 8} {
		_, addr := startTestServer(t, ServiceConfig{Workers: workers})
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.OpenJob("tenant", OPT350M(), []GPUType{A100}, 0); err != nil {
			t.Fatal(err)
		}
		sys, err := New(OPT350M(), []GPUType{A100}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}

		// Cold plan.
		remote, err := c.Plan(context.Background(), "tenant", pools[0], MaxThroughput, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		local, err := sys.Plan(pools[0], MaxThroughput, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		if a, b := canonicalResult(t, remote), canonicalResult(t, local); a != b {
			t.Errorf("workers=%d: wire plan != in-process plan:\n%s\nvs\n%s", workers, a, b)
		}

		// Warm replan chain: the wire responses must track System.Replan's
		// trajectory exactly, cache-hit telemetry included.
		var prevRemote, prevLocal Plan
		prevRemote, prevLocal = remote.Plan, local.Plan
		for i, pool := range pools[1:] {
			remote, err := c.Replan(context.Background(), "tenant", prevRemote, pool, MaxThroughput, Constraints{})
			if err != nil {
				t.Fatalf("workers=%d replan %d: %v", workers, i, err)
			}
			local, err := sys.Replan(prevLocal, pool, MaxThroughput, Constraints{})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := canonicalResult(t, remote), canonicalResult(t, local); a != b {
				t.Errorf("workers=%d replan %d: wire != in-process:\n%s\nvs\n%s", workers, i, a, b)
			}
			prevRemote, prevLocal = remote.Plan, local.Plan
		}

		// Simulate crosses the wire losslessly too.
		remoteEst, err := c.Simulate("tenant", prevRemote)
		if err != nil {
			t.Fatal(err)
		}
		localEst, err := sys.Simulate(prevLocal)
		if err != nil {
			t.Fatal(err)
		}
		if remoteEst.IterTime != localEst.IterTime || remoteEst.PeakMemory != localEst.PeakMemory {
			t.Errorf("workers=%d: wire estimate diverged: %+v vs %+v", workers, remoteEst, localEst)
		}
		if err := c.CloseJob("tenant"); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

// TestWireConcurrentTenants: several clients of one daemon plan and replan
// concurrently (race-detector coverage for the full wire stack) and each
// gets the deterministic reference answer.
func TestWireConcurrentTenants(t *testing.T) {
	pools := replayPools(t, "preemption-storm", 3, 3)
	_, addr := startTestServer(t, ServiceConfig{Workers: 1, MaxConcurrent: 4})
	sys, err := New(OPT350M(), []GPUType{A100}, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]string, len(pools))
	for i, p := range pools {
		res, err := sys.Plan(p, MaxThroughput, Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = res.Plan.String()
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			job := string(rune('a' + g))
			if err := c.OpenJob(job, OPT350M(), []GPUType{A100}, 0); err != nil {
				t.Error(err)
				return
			}
			var prev Plan
			for i, pool := range pools {
				res, err := c.Replan(context.Background(), job, prev, pool, MaxThroughput, Constraints{})
				if err != nil {
					t.Errorf("tenant %s pool %d: %v", job, i, err)
					return
				}
				if res.Plan.String() != cold[i] {
					t.Errorf("tenant %s pool %d: plan diverged", job, i)
				}
				prev = res.Plan
			}
		}(g)
	}
	wg.Wait()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replans != uint64(3*len(pools)) {
		t.Errorf("Replans = %d, want %d", st.Replans, 3*len(pools))
	}
	if st.JobsOpen != 3 {
		t.Errorf("JobsOpen = %d, want 3", st.JobsOpen)
	}
}

// TestWireErrors: daemon-side failures surface as errors on the client,
// and a closed daemon yields the rpc layer's typed errors.
func TestWireErrors(t *testing.T) {
	srv, addr := startTestServer(t, ServiceConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Plan(context.Background(), "ghost", NewPool(), MaxThroughput, Constraints{}); err == nil {
		t.Error("planning an unopened job must fail across the wire")
	}
	if err := c.OpenJob("", OPT350M(), []GPUType{A100}, 0); err == nil {
		t.Error("empty job name must fail across the wire")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Plan(ctx, "x", NewPool(), MaxThroughput, Constraints{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx = %v, want context.Canceled", err)
	}
	srv.Close()
	if _, err := c.Stats(); err == nil {
		t.Error("stats after server close must fail")
	} else if !errors.Is(err, rpc.ErrConnectionLost) && !errors.Is(err, rpc.ErrServerClosed) {
		t.Errorf("post-close error = %v, want a typed rpc error", err)
	}
}

// TestWireRejectsNegativeCounts: a pool with a negative cell would hide
// its zone's real GPUs from the planner, so the daemon refuses it by name
// on Plan, Replan and SetFleet — and keeps serving the connection. The
// requests go out as raw rpc calls because a Client's pool encoding drops
// non-positive cells before they reach the wire.
func TestWireRejectsNegativeCounts(t *testing.T) {
	srv, addr := startTestServer(t, ServiceConfig{})
	rc, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := srv.Service().OpenJob("j", OPT350M(), []GPUType{A100, V100}, 0); err != nil {
		t.Fatal(err)
	}
	z := wire.FromZone(GCPZone("us-central1", 'a'))
	good := wire.Pool{Entries: []wire.PoolEntry{{Zone: z, GPU: string(A100), Count: 16}}}
	bad := wire.Pool{Entries: append(slices.Clone(good.Entries), wire.PoolEntry{Zone: z, GPU: string(V100), Count: -20})}
	obj := MaxThroughput.String()
	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "us-central1-a/"+string(V100)) || !strings.Contains(err.Error(), "-20") {
			t.Errorf("%s with a negative cell: err = %v, want it named", what, err)
		}
	}
	var resp wire.PlanResponse
	wantErr("plan", rc.Call(wire.MethodPlan, wire.PlanRequest{V: wire.Version, Job: "j", Pool: bad, Objective: obj}, &resp))
	wantErr("replan", rc.Call(wire.MethodReplan, wire.ReplanRequest{V: wire.Version, Job: "j", Pool: bad, Objective: obj}, &resp))
	wantErr("set-fleet", rc.Call(wire.MethodSetFleet, wire.SetFleetRequest{V: wire.Version, Capacity: bad}, &wire.SetFleetResponse{}))

	if err := rc.Call(wire.MethodPlan, wire.PlanRequest{V: wire.Version, Job: "j", Pool: good, Objective: obj}, &resp); err != nil {
		t.Fatalf("plan after the refusals: %v", err)
	}
	if got := resp.Result.Plan.Core().GPUCount(); got != 16 {
		t.Errorf("plan uses %d GPUs, want all 16 A100s", got)
	}
	st, err := srv.Service().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 2 || st.Plans != 2 || st.Replans != 1 {
		t.Errorf("stats = %d errors, %d plans, %d replans; want 2, 2, 1", st.Errors, st.Plans, st.Replans)
	}
	if _, err := srv.Service().FleetStats(); !errors.Is(err, ErrNoFleet) {
		t.Errorf("refused SetFleet installed a ledger: %v", err)
	}
}

// badRunPlans are wire plans whose replica runs Check refuses: a zero and a
// negative count, one run over wire.MaxReplicas, and runs that only sum
// over it across stages.
func badRunPlans() map[string]wire.Plan {
	run := func(n int) wire.ReplicaRun {
		return wire.ReplicaRun{GPU: string(A100), TP: 1, Zone: wire.FromZone(GCPZone("us-central1", 'a')), N: n}
	}
	stage := func(runs ...wire.ReplicaRun) wire.Stage { return wire.Stage{NumLayers: 24, Replicas: runs} }
	return map[string]wire.Plan{
		"zero run":     {MicroBatchSize: 1, Stages: []wire.Stage{stage(run(1), run(0))}},
		"negative run": {MicroBatchSize: 1, Stages: []wire.Stage{stage(run(-1))}},
		"oversized":    {MicroBatchSize: 1, Stages: []wire.Stage{stage(run(wire.MaxReplicas + 1))}},
		"sum over":     {MicroBatchSize: 1, Stages: []wire.Stage{stage(run(wire.MaxReplicas)), stage(run(1))}},
	}
}

// TestWireRejectsBadReplicaRuns: the handlers that take a plan from a
// client (Replan's Prev, Simulate's Plan) refuse a plan whose runs Check
// rejects before expanding it: the service never sees the request, and the
// connection keeps serving.
func TestWireRejectsBadReplicaRuns(t *testing.T) {
	srv, addr := startTestServer(t, ServiceConfig{})
	rc, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := srv.Service().OpenJob("j", OPT350M(), []GPUType{A100}, 0); err != nil {
		t.Fatal(err)
	}
	pool := wire.FromPool(NewPool().Set(GCPZone("us-central1", 'a'), A100, 8))
	obj := MaxThroughput.String()
	for name, bad := range badRunPlans() {
		for _, tc := range []struct {
			method   string
			req, rsp any
		}{
			{wire.MethodReplan, wire.ReplanRequest{V: wire.Version, Job: "j", Prev: bad, Pool: pool, Objective: obj}, &wire.PlanResponse{}},
			{wire.MethodSimulate, wire.SimulateRequest{V: wire.Version, Job: "j", Plan: bad}, &wire.SimulateResponse{}},
		} {
			if err := rc.Call(tc.method, tc.req, tc.rsp); err == nil || !strings.Contains(err.Error(), "wire: plan") {
				t.Errorf("%s, %s: err = %v, want the plan refused", tc.method, name, err)
			}
		}
	}
	st, err := srv.Service().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 0 {
		t.Errorf("refused plans reached the service: %d requests", st.Requests)
	}
	var resp wire.PlanResponse
	if err := rc.Call(wire.MethodReplan, wire.ReplanRequest{V: wire.Version, Job: "j", Pool: pool, Objective: obj}, &resp); err != nil {
		t.Fatalf("replan after the refusals: %v", err)
	}
}

// TestClientChecksReplyPlans: a Client bounds every plan in a reply before
// handing it on — Plan, Replan, Rebalance, FleetEvent and FleetStats — so
// a misbehaving daemon cannot make it expand an unbounded run.
func TestClientChecksReplyPlans(t *testing.T) {
	bad := badRunPlans()["oversized"]
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fake := rpc.NewServer(lis)
	reply := func(resp any) rpc.Handler {
		return func(context.Context, json.RawMessage) (any, error) { return resp, nil }
	}
	lease := []wire.LeaseInfo{{Job: "j", GPUs: 1, Plan: bad}}
	fake.Handle(wire.MethodPlan, reply(wire.PlanResponse{V: wire.Version, Result: wire.PlanResult{Plan: bad}}))
	fake.Handle(wire.MethodReplan, reply(wire.PlanResponse{V: wire.Version, Result: wire.PlanResult{Plan: bad}}))
	fake.Handle(wire.MethodRebalance, reply(wire.RebalanceResponse{V: wire.Version,
		Steps: []wire.RebalanceStep{{Job: "j", Action: "admit", Result: &wire.PlanResult{Plan: bad}}}}))
	fake.Handle(wire.MethodFleetEvent, reply(wire.FleetEventResponse{V: wire.Version, Broken: lease}))
	fake.Handle(wire.MethodFleetStats, reply(wire.FleetStatsResponse{V: wire.Version, Stats: wire.FleetStats{Leases: lease}}))
	go fake.Serve()
	t.Cleanup(fake.Close)

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, planErr := c.Plan(ctx, "j", NewPool(), MaxThroughput, Constraints{})
	_, replanErr := c.Replan(ctx, "j", Plan{}, NewPool(), MaxThroughput, Constraints{})
	_, rebalanceErr := c.Rebalance(ctx)
	_, eventErr := c.FleetEvent(TraceEvent{})
	_, statsErr := c.FleetStats()
	for name, err := range map[string]error{"plan": planErr, "replan": replanErr,
		"rebalance": rebalanceErr, "fleet-event": eventErr, "fleet-stats": statsErr} {
		if err == nil || !strings.Contains(err.Error(), "more than") {
			t.Errorf("%s reply with an oversized run: err = %v, want it refused", name, err)
		}
	}
}
