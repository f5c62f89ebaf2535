package main

// The traced run and the per-layer replays. The traced run assembles the
// sailor-serve stack in this process with shims at the layer boundaries and
// records a span around every call the benchmark makes into a layer; the
// replays then feed the inputs it recorded through each layer's public
// functions alone — wire codec, rpc framing, the in-process service, the
// planner over a counting simulator shim, a bare fleet ledger, the journal
// — so each layer gets a time that owes nothing to the others.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/persist"
	"repro/internal/planner"
	"repro/internal/profiler"
	"repro/internal/rpc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/sailor"
)

// layerOutput is what the traced run and the replays measured.
type layerOutput struct {
	metrics map[string]float64
	rows    []breakdownRow
	// clientMean is the mean client.call span, the figure the rows add up to.
	clientMean time.Duration
	tally      *tally
}

// breakdownRow is one layer of the per-workload self-time table: the mean
// time per op spent in that layer alone.
type breakdownRow struct {
	layer string
	self  time.Duration
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// traced runs the workload's traced tenth and every layer replay. The
// counters that came free with the untraced run e2e complete the metric set.
func (b *bench) traced(wl workload, e2e *runOutput) (*layerOutput, error) {
	n := max(b.ops(wl)/10, 1)
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload bypasses reads 0
	}
	for k, v := range e2e.metrics {
		m[k] = v
	}
	lo := &layerOutput{metrics: m}

	// 1. The traced run: same stack, in-process, shims at the boundaries.
	tr := newTracer()
	rc := runConfig{
		wl: wl, seed: b.seed, n: n, h: b.h, setupReps: 1,
		launch:  func(dir string) (daemon, error) { return launchInproc(dir, tracedShims(tr)) },
		connect: dialTCP, sequential: true, tr: tr, keep: true,
	}
	run, err := rc.run()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	// The same run with neither tracer nor shims: what the two differ by is
	// what tracing costs.
	plain := rc
	plain.tr, plain.keep = nil, false
	plain.launch = func(dir string) (daemon, error) { return launchInproc(dir, stackShims{}) }
	ref, err := plain.run()
	if err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	lo.tally = run.tally
	ops := float64(len(run.tally.lat))
	lo.clientMean = mean(run.tally.lat)
	m["client.call_us"] = us(percentile(sortedCopy(run.tally.lat), 50))
	m["loadgen.self_us_per_op"] = us(run.genTime) / float64(n+n/10)
	if err := os.MkdirAll(filepath.Join(b.h.root, "benchmarks", "out"), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(b.h.root, "benchmarks", "out", "trace-"+wl.name+".json")); err != nil {
		return nil, err
	}

	// 2. persist: the journal shim's spans, then recovery and rotation of
	// the traced run's own data dir.
	st := selfTimes(tr.spans[run.windowSpan:])
	m["persist.append_us_per_record"] = ratio(us(st[spanPersistWrite].total), float64(st[spanPersistWrite].count))
	m["persist.fsync_us_per_record"] = ratio(us(st[spanPersistSync].total), float64(st[spanPersistSync].count))
	persistPerOp := time.Duration(ratio(float64(st[spanPersistRecord].total), ops))
	if run.dataDir != "" {
		start := time.Now()
		store, recovered, err := persist.Open(run.dataDir, persist.Config{})
		took := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("replay recovery: %w", err)
		}
		m["persist.recover_us_per_record"] = ratio(us(took), float64(recovered.RecordsReplayed))
		start = time.Now()
		err = store.Rotate(recovered.State)
		m["persist.rotate_ms"] = ms(time.Since(start))
		store.Close()
		if err != nil {
			return nil, fmt.Errorf("replay rotation: %w", err)
		}
	}

	// The message-level replays take the timed foreground ops; the forecaster
	// needs the warm-up's history too.
	var foreground, timed []opRecord
	for _, r := range run.tally.records {
		if !r.background {
			foreground = append(foreground, r)
			if !r.warmup {
				timed = append(timed, r)
			}
		}
	}

	// 3. wire and rpc, on the recorded messages of the foreground ops.
	msgs, wirePerOp, err := wireReplay(timed, m)
	if err != nil {
		return nil, err
	}
	rpcPerOp, err := rpcReplay(msgs, len(timed))
	if err != nil {
		return nil, err
	}
	m["rpc.roundtrip_us"] = us(rpcPerOp)

	// 4. service: the same sequence against an in-process sailor.Service.
	var cur *inproc
	str := newTracer()
	src := rc
	src.tr, src.keep = str, false
	src.launch = func(dir string) (daemon, error) {
		d, err := launchInproc(dir, tracedShims(str))
		cur = d
		return d, err
	}
	src.connect = func(daemon, *atomic.Int64) (sailor.API, io.Closer, error) { return cur.svc, nopCloser{}, nil }
	srun, err := src.run()
	if err != nil {
		return nil, fmt.Errorf("service replay: %w", err)
	}
	serviceMean := mean(srun.tally.lat)
	sops := float64(len(srun.tally.lat))
	searchPerOp := time.Duration(ratio(float64(srun.tally.searchOn), sops))
	srvPersist := time.Duration(ratio(float64(selfTimes(str.spans[srun.windowSpan:])[spanPersistRecord].total), sops))
	m["service.call_us"] = us(percentile(sortedCopy(srun.tally.lat), 50))
	m["service.self_us"] = us(serviceMean - searchPerOp - srvPersist)
	if srun.digest != run.digest {
		run.tally.fail("service replay returned different plans than the traced run (digest %s vs %s)", srun.digest[:12], run.digest[:12])
	}

	// 5. planner, sim and fleet: direct searches on the recorded pools and
	// the recorded ledger ops against a bare ledger.
	pr, err := plannerReplay(wl, run.plans, run.tally.records, run.tally)
	if err != nil {
		return nil, err
	}
	pr.export(m)

	// 6. trace: the forecaster on each job's recorded pool sequence.
	forecastReplay(foreground, m)

	// 7. profiler: the campaign every OpenJob of a new job shape pays.
	start := time.Now()
	if _, err := profiler.Collect(benchModel(), heteroGPUs, nil, profiler.Options{Seed: 1}); err != nil {
		return nil, err
	}
	m["profiler.collect_ms"] = ms(time.Since(start))

	// The table. The search the service ran on the request path splits into
	// planner and sim by the direct replay's shares; the ledger's time is
	// inside the service's; rpc and wire are measured on their own, which is
	// what leaves something to be unattributed.
	simShare := ratio(float64(pr.estimateTime), float64(pr.searchTime))
	simSelf := time.Duration(float64(searchPerOp) * simShare)
	fleetSelf := min(pr.fleetPerOp(), serviceMean-searchPerOp-srvPersist)
	lo.rows = []breakdownRow{
		{"rpc", rpcPerOp},
		{"wire", wirePerOp},
		{"service", serviceMean - searchPerOp - srvPersist - fleetSelf},
		{"planner", searchPerOp - simSelf},
		{"sim", simSelf},
		{"fleet", fleetSelf},
		{"persist", persistPerOp},
	}
	var sum time.Duration
	for _, r := range lo.rows {
		sum += r.self
	}
	gap := lo.clientMean - sum
	if gap < 0 {
		gap = -gap
	}
	m["breakdown.unattributed_share"] = ratio(float64(gap), float64(lo.clientMean))
	m["breakdown.overhead_share"] = ratio(m["client.call_us"]/1e3-ref.metrics["op_p50_ms"], ref.metrics["op_p50_ms"])
	return lo, nil
}

// message is one recorded request/response pair, wire-encoded.
type message struct{ req, resp []byte }

// wireReplay marshals and unmarshals the recorded request and response DTOs
// of every op — conversions from and to the domain types included, they are
// the wire module's code too — and returns the encoded messages per op and
// the mean encode + decode time per op.
func wireReplay(records []opRecord, m map[string]float64) ([][]message, time.Duration, error) {
	type codec struct {
		req, resp   func() any // domain -> DTO
		reqT, respT func() any // fresh decode targets
		convert     func(req, resp any)
	}
	codecs := make([][]codec, len(records))
	for i, r := range records {
		switch r.op.kind {
		case opPlan:
			codecs[i] = []codec{{
				req: func() any {
					return wire.PlanRequest{V: wire.Version, Job: r.job.name, Pool: wire.FromPool(r.op.pool),
						Objective: r.op.obj.String(), Constraints: wire.FromConstraints(r.op.cons)}
				},
				resp:  func() any { return wire.PlanResponse{V: wire.Version, Result: wire.FromResult(r.res)} },
				reqT:  func() any { return new(wire.PlanRequest) },
				respT: func() any { return new(wire.PlanResponse) },
				convert: func(req, resp any) {
					q := req.(*wire.PlanRequest)
					q.Pool.Cluster()
					q.Constraints.Core()
					resp.(*wire.PlanResponse).Result.Result()
				},
			}}
		case opReplan:
			codecs[i] = []codec{{
				req: func() any {
					return wire.ReplanRequest{V: wire.Version, Job: r.job.name, Prev: wire.FromPlan(r.prev), Pool: wire.FromPool(r.op.pool),
						Objective: r.op.obj.String(), Constraints: wire.FromConstraints(r.op.cons)}
				},
				resp:  func() any { return wire.PlanResponse{V: wire.Version, Result: wire.FromResult(r.res)} },
				reqT:  func() any { return new(wire.ReplanRequest) },
				respT: func() any { return new(wire.PlanResponse) },
				convert: func(req, resp any) {
					q := req.(*wire.ReplanRequest)
					q.Prev.Core()
					q.Pool.Cluster()
					q.Constraints.Core()
					resp.(*wire.PlanResponse).Result.Result()
				},
			}}
		case opFleetStep:
			codecs[i] = []codec{{
				req:     func() any { return wire.FleetEventRequest{V: wire.Version, Event: wire.FromFleetEvent(r.op.event)} },
				resp:    func() any { return wire.FleetEventResponse{V: wire.Version, Broken: r.broken} },
				reqT:    func() any { return new(wire.FleetEventRequest) },
				respT:   func() any { return new(wire.FleetEventResponse) },
				convert: func(req, _ any) { req.(*wire.FleetEventRequest).Event.Trace() },
			}, {
				req:     func() any { return wire.RebalanceRequest{V: wire.Version} },
				resp:    func() any { return wire.RebalanceResponse{V: wire.Version, Steps: r.steps} },
				reqT:    func() any { return new(wire.RebalanceRequest) },
				respT:   func() any { return new(wire.RebalanceResponse) },
				convert: func(_, _ any) {},
			}}
		case opPoll:
			codecs[i] = []codec{{
				req:     func() any { return wire.FleetStatsRequest{V: wire.Version} },
				resp:    func() any { return wire.FleetStatsResponse{V: wire.Version, Stats: r.fstats} },
				reqT:    func() any { return new(wire.FleetStatsRequest) },
				respT:   func() any { return new(wire.FleetStatsResponse) },
				convert: func(_, _ any) {},
			}, {
				req:     func() any { return wire.StatsRequest{V: wire.Version} },
				resp:    func() any { return wire.StatsResponse{V: wire.Version, Stats: r.stats} },
				reqT:    func() any { return new(wire.StatsRequest) },
				respT:   func() any { return new(wire.StatsResponse) },
				convert: func(_, _ any) {},
			}}
		}
	}

	msgs := make([][]message, len(records))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, cs := range codecs {
		for _, c := range cs {
			req, err := json.Marshal(c.req())
			if err != nil {
				return nil, 0, err
			}
			resp, err := json.Marshal(c.resp())
			if err != nil {
				return nil, 0, err
			}
			msgs[i] = append(msgs[i], message{req, resp})
		}
	}
	encode := time.Since(start)
	start = time.Now()
	for i, cs := range codecs {
		for k, c := range cs {
			req, resp := c.reqT(), c.respT()
			if err := json.Unmarshal(msgs[i][k].req, req); err != nil {
				return nil, 0, err
			}
			if err := json.Unmarshal(msgs[i][k].resp, resp); err != nil {
				return nil, 0, err
			}
			c.convert(req, resp)
		}
	}
	decode := time.Since(start)
	runtime.ReadMemStats(&after)
	ops := float64(len(records))
	m["wire.encode_us_per_op"] = ratio(us(encode), ops)
	m["wire.decode_us_per_op"] = ratio(us(decode), ops)
	m["wire.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), ops)
	if len(records) == 0 {
		return msgs, 0, nil
	}
	return msgs, (encode + decode) / time.Duration(len(records)), nil
}

// rpcReplay sends every recorded request through an rpc.Server whose echo
// handler answers with the recorded response: framing, envelope and loopback
// TCP with payloads of the real sizes, and no handler work. It returns the
// mean round-trip time per op.
func rpcReplay(msgs [][]message, ops int) (time.Duration, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := rpc.NewServer(lis)
	var next atomic.Pointer[[]byte]
	srv.Handle("echo", func(context.Context, json.RawMessage) (any, error) {
		return json.RawMessage(*next.Load()), nil
	})
	go srv.Serve()
	defer srv.Close()
	c, err := rpc.Dial(lis.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var total time.Duration
	for _, op := range msgs {
		for _, msg := range op {
			next.Store(&msg.resp)
			var reply json.RawMessage
			start := time.Now()
			if err := c.Call("echo", json.RawMessage(msg.req), &reply); err != nil {
				return 0, fmt.Errorf("rpc echo: %w", err)
			}
			total += time.Since(start)
		}
	}
	if ops == 0 {
		return 0, nil
	}
	return total / time.Duration(ops), nil
}

// evalShim is the forwarding planner.Evaluator between the planner and the
// simulator: it counts and times plan-level estimates and counts stage-level
// calls. Embedding forwards everything else, StageBusyLowerBounded included,
// so the planner prunes exactly as it does against the bare simulator.
type evalShim struct {
	*sim.Simulator
	estimates  atomic.Int64
	estimateNS atomic.Int64
	stages     atomic.Int64
}

func (e *evalShim) Estimate(p core.Plan) (core.Estimate, error) {
	start := time.Now()
	est, err := e.Simulator.Estimate(p)
	e.estimateNS.Add(time.Since(start).Nanoseconds())
	e.estimates.Add(1)
	return est, err
}

func (e *evalShim) StageComputeTimeWith(g core.GPUType, tp, mbs, layers int, last, recompute bool) (float64, error) {
	e.stages.Add(1)
	return e.Simulator.StageComputeTimeWith(g, tp, mbs, layers, last, recompute)
}

// plannerStats is what the direct planner/sim/fleet replay measured.
type plannerStats struct {
	ops                   int // timed foreground ops
	plans, replans        int
	planTime, replanTime  time.Duration
	byObj                 map[sailor.Objective]*objTime
	searchTime            time.Duration // planTime + replanTime
	estimateTime          time.Duration
	estimates, stageCalls int64
	mallocs, bytes        uint64

	applies, views, installs, snapshots            int
	applyTime, viewTime, installTime, snapshotTime time.Duration
}

type objTime struct {
	n    int
	time time.Duration
}

func (p *plannerStats) fleetPerOp() time.Duration {
	if p.ops == 0 {
		return 0
	}
	return (p.applyTime + p.viewTime + p.installTime) / time.Duration(p.ops)
}

func (p *plannerStats) export(m map[string]float64) {
	searches := float64(p.plans + p.replans)
	m["planner.plan_us"] = ratio(us(p.planTime), float64(p.plans))
	m["planner.replan_us"] = ratio(us(p.replanTime), float64(p.replans))
	for _, obj := range []sailor.Objective{sailor.MaxThroughput, sailor.MinCost} {
		ot := p.byObj[obj]
		if ot == nil {
			ot = &objTime{}
		}
		m["planner.plan_us."+obj.String()] = ratio(us(ot.time), float64(ot.n))
	}
	m["planner.allocs_per_op"] = ratio(float64(p.mallocs), searches)
	m["planner.bytes_per_op"] = ratio(float64(p.bytes), searches)
	m["sim.estimate_calls_per_op"] = ratio(float64(p.estimates), searches)
	m["sim.estimate_us_per_op"] = ratio(us(p.estimateTime), searches)
	m["sim.stage_calls_per_op"] = ratio(float64(p.stageCalls), searches)
	m["fleet.apply_us"] = ratio(us(p.applyTime), float64(p.applies))
	m["fleet.view_us"] = ratio(us(p.viewTime), float64(p.views))
	m["fleet.install_us"] = ratio(us(p.installTime), float64(p.installs))
	m["fleet.snapshot_us"] = ratio(us(p.snapshotTime), float64(p.snapshots))
}

// plannerReplay runs every recorded search directly on the planner — one
// WarmCache per job, as the service keeps them, over a counting simulator
// shim — and every recorded ledger op on a bare fleet.Ledger. A fleet
// workload's searches run on the views the bare ledger hands out, in the
// order Rebalance ran them. Warm-up records replay first, unmeasured, so the
// caches and the ledger enter the timed ops in the state the daemon's did;
// background clients' ops (the dashboard's snapshots, the cold plans beside
// warm tenants) are timed too.
// A search that returns another plan than the daemon did is a failure: the
// determinism contract says it cannot.
func plannerReplay(wl workload, plans []clientPlan, records []opRecord, t *tally) (*plannerStats, error) {
	ps := &plannerStats{byObj: map[sailor.Objective]*objTime{}}
	shims := map[string]*evalShim{}
	shimFor := func(gpus []sailor.GPUType) (*evalShim, error) {
		key := fmt.Sprint(gpus)
		if s, ok := shims[key]; ok {
			return s, nil
		}
		prof, err := profiler.Collect(benchModel(), gpus, nil, profiler.Options{Seed: 1})
		if err != nil {
			return nil, err
		}
		s := &evalShim{Simulator: sim.New(benchModel(), prof)}
		shims[key] = s
		return s, nil
	}
	warm := map[string]*planner.WarmCache{}
	last := map[string]sailor.Plan{}
	warmFor := func(job string) *planner.WarmCache {
		if warm[job] == nil {
			warm[job] = planner.NewWarmCache()
		}
		return warm[job]
	}
	priority := map[string]int{}
	for _, p := range plans {
		for _, j := range p.jobs {
			priority[j.name] = j.priority
		}
	}
	led := fleet.NewLedger(nil)
	if wl.fleetCap > 0 {
		led.SetJobCap(wl.fleetCap)
	}
	ctx := context.Background()
	measured := false // false while the warm-up records replay

	// clock adds the time since start to *total (and one to *count) for a
	// measured record only.
	clock := func(start time.Time, total *time.Duration, count *int) {
		if measured {
			*total += time.Since(start)
			*count++
		}
	}
	search := func(job string, gpus []sailor.GPUType, replan bool, prev sailor.Plan, pool *sailor.Pool,
		obj sailor.Objective, cons sailor.Constraints, cache *planner.WarmCache, guard *planner.CapacityGuard, want sailor.Plan) error {
		ev, err := shimFor(gpus)
		if err != nil {
			return err
		}
		pl := planner.New(benchModel(), ev, planner.Options{
			Objective: obj, Constraints: cons, Heuristics: planner.AllHeuristics(),
			Workers: daemonWorkers, Warm: cache, Guard: guard,
		})
		var res planner.Result
		start := time.Now()
		if replan {
			res, err = pl.ReplanContext(ctx, prev, pool)
			clock(start, &ps.replanTime, &ps.replans)
		} else {
			res, err = pl.PlanContext(ctx, pool)
			if ps.byObj[obj] == nil {
				ps.byObj[obj] = &objTime{}
			}
			clock(start, &ps.byObj[obj].time, &ps.byObj[obj].n)
			clock(start, &ps.planTime, &ps.plans)
		}
		if err != nil {
			return fmt.Errorf("planner replay of %s: %w", job, err)
		}
		if planner.PlanKey(res.Plan) != planner.PlanKey(want) {
			t.fail("planner replay of %s chose another plan than the daemon returned", job)
		}
		return nil
	}
	replay := func(r opRecord) error {
		switch r.op.kind {
		case opPlan:
			// A cold Plan carries no warm cache, exactly as Service.Plan.
			return search(r.job.name, r.job.gpus, false, sailor.Plan{}, r.op.pool, r.op.obj, r.op.cons, nil, nil, r.res.Plan)
		case opReplan:
			return search(r.job.name, r.job.gpus, true, r.prev, r.op.pool, r.op.obj, r.op.cons, warmFor(r.job.name), nil, r.res.Plan)
		case opFleetStep:
			start := time.Now()
			led.Apply(r.op.event)
			clock(start, &ps.applyTime, &ps.applies)
			for _, s := range r.steps {
				if s.Result == nil {
					continue
				}
				want := s.Result.Plan.Core()
				start := time.Now()
				view := led.ViewForTypes(s.Job, a100Only)
				clock(start, &ps.viewTime, &ps.views)
				prev := last[s.Job]
				if err := search(s.Job, a100Only, len(prev.Stages) > 0, prev, view, sailor.MaxThroughput, sailor.Constraints{},
					warmFor(s.Job), planner.NewCapacityGuard(view), want); err != nil {
					return err
				}
				start = time.Now()
				_, err := led.Install(s.Job, priority[s.Job], want)
				clock(start, &ps.installTime, &ps.installs)
				if err != nil {
					t.fail("ledger replay: install %s: %v", s.Job, err)
				}
				last[s.Job] = want
			}
		case opPoll:
			start := time.Now()
			led.Snapshot()
			clock(start, &ps.snapshotTime, &ps.snapshots)
		}
		return nil
	}

	for _, r := range records {
		if r.warmup {
			if err := replay(r); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range shims {
		s.estimates.Store(0)
		s.estimateNS.Store(0)
		s.stages.Store(0)
	}
	measured = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range records {
		if !r.warmup {
			if !r.background {
				ps.ops++
			}
			if err := replay(r); err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&after)
	ps.mallocs, ps.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	ps.searchTime = ps.planTime + ps.replanTime
	for _, s := range shims {
		ps.estimates += s.estimates.Load()
		ps.estimateTime += time.Duration(s.estimateNS.Load())
		ps.stageCalls += s.stages.Load()
	}
	return ps, nil
}

// forecastReplay feeds each job's recorded pool sequence (the fleet's
// capacity sequence, for fleet steps) to a trace.Forecaster the way the
// service does — observe, then forecast two — and counts, over the timed
// ops, how often the next pool was among the forecast: the ceiling of the
// speculation hit rate.
func forecastReplay(records []opRecord, m map[string]float64) {
	type seq struct {
		f    *trace.Forecaster
		pred map[string]bool
	}
	seqs := map[string]*seq{}
	capacity := sailor.NewPool()
	var observes, hits int
	var spent time.Duration
	for _, r := range records {
		var key string
		var pool *sailor.Pool
		switch r.op.kind {
		case opPlan, opReplan:
			key, pool = r.job.name, r.op.pool
		case opFleetStep:
			capacity.Add(r.op.event.Zone, r.op.event.GPU, r.op.event.Delta)
			key, pool = "fleet", capacity
		default:
			continue
		}
		s := seqs[key]
		if s == nil {
			s = &seq{f: trace.NewForecaster()}
			seqs[key] = s
		}
		start := time.Now()
		s.f.ObservePool(pool)
		preds := s.f.Forecast(2)
		if !r.warmup {
			spent += time.Since(start)
			observes++
			if s.pred[pool.String()] {
				hits++
			}
		}
		s.pred = map[string]bool{}
		for _, p := range preds {
			s.pred[p.String()] = true
		}
	}
	m["trace.forecast_us_per_observe"] = ratio(us(spent), float64(observes))
	m["trace.forecast_hit_share"] = ratio(float64(hits), float64(observes))
}
