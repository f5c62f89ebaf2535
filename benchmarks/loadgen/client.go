package main

// One client's closed loop: issue the next op, wait for the reply, time it,
// validate it, account for it. The same loop drives a sailor.Client over
// TCP (end-to-end and traced runs) and a sailor.Service directly (the
// service-layer replay), since both implement sailor.API.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/planner"
	"repro/internal/wire"
	"repro/sailor"
)

// benchModel is the training job every workload plans for.
func benchModel() sailor.Model { return sailor.OPT350M() }

// opRecord is what the traced run keeps of one timed op: the inputs the
// layer replays feed back through each layer alone, and the reply.
type opRecord struct {
	background bool // issued by a background client
	warmup     bool // issued before the timed window
	op         op
	job        jobSpec
	prev       sailor.Plan
	res        sailor.PlanResult      // plan, replan
	broken     []sailor.LeaseInfo     // fleet step
	steps      []sailor.RebalanceStep // fleet step
	fstats     sailor.FleetStats      // poll
	stats      sailor.ServiceStats    // poll
}

// distinctPlan is one returned plan, keyed by job shape + plan, for the
// off-the-clock accuracy check.
type distinctPlan struct {
	gpus []sailor.GPUType
	plan sailor.Plan
}

// tally accumulates what a client's replies say. Everything in it except
// the latencies is a pure function of the op sequence.
type tally struct {
	attempted int
	failed    int
	failures  []string // the first few, for the report

	lat     []time.Duration // foreground op latencies, op order
	pollLat []time.Duration // FleetStats read latencies (the dashboard)

	digest     hash.Hash // wire-encoded plans of foreground ops, op order
	plans      int       // plans returned by foreground ops
	sumLogTput float64   // Σ ln(estimated iterations/s) over those plans
	explored   int
	cacheHits  int
	specServed int           // replies marked speculative_hit
	searchOn   time.Duration // Σ search time of replies that ran their search on the request path
	distinct   map[string]distinctPlan

	events     int // fleet events applied
	broken     int // leases those events broke
	rebalSteps int // rebalance steps returned
	waitSteps  int // of those, action "wait"

	records []opRecord
}

func newTally() *tally {
	return &tally{digest: sha256.New(), distinct: map[string]distinctPlan{}}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds a client's tally into the run's, in client order.
func (t *tally) merge(c *tally) {
	t.attempted += c.attempted
	t.failed += c.failed
	for _, f := range c.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
	t.lat = append(t.lat, c.lat...)
	t.pollLat = append(t.pollLat, c.pollLat...)
	t.digest.Write(c.digest.Sum(nil))
	t.plans += c.plans
	t.sumLogTput += c.sumLogTput
	t.explored += c.explored
	t.cacheHits += c.cacheHits
	t.specServed += c.specServed
	t.searchOn += c.searchOn
	for k, v := range c.distinct {
		t.distinct[k] = v
	}
	t.events += c.events
	t.broken += c.broken
	t.rebalSteps += c.rebalSteps
	t.waitSteps += c.waitSteps
	t.records = append(t.records, c.records...)
}

// client is one connection's loop state.
type client struct {
	api  sailor.API
	plan clientPlan
	last []sailor.Plan // per job: the plan the daemon returned last
	// capacity mirrors the fleet's total capacity from the events this
	// client applied, to validate rebalanced plans against.
	capacity *sailor.Pool
	fleetCap int
	tr       *tracer
	keep     bool // keep an opRecord of every op
}

func newClient(api sailor.API, plan clientPlan, wl workload) *client {
	return &client{api: api, plan: plan, last: make([]sailor.Plan, len(plan.jobs)),
		capacity: sailor.NewPool(), fleetCap: wl.fleetCap}
}

func (c *client) openJobs() error {
	for _, j := range c.plan.jobs {
		if err := c.api.OpenJob(j.name, benchModel(), j.gpus, j.priority); err != nil {
			return err
		}
	}
	return nil
}

// run issues ops in order into t. A background client cycles over ops until
// stop closes; a foreground one runs ops once, or until stop closes if that
// comes first (the window's safety cap).
func (c *client) run(ops []op, t *tally, timed bool, stop <-chan struct{}) {
	for i := 0; ; i++ {
		if !c.plan.background && i == len(ops) {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		c.do(ops[i%len(ops)], t, timed)
		if c.plan.think > 0 {
			time.Sleep(c.plan.think)
		}
	}
}

// do executes one op and accounts for its reply.
func (c *client) do(o op, t *tally, timed bool) {
	ctx := context.Background()
	foreground := timed && !c.plan.background
	rec := opRecord{background: c.plan.background, warmup: !timed, op: o}
	if len(c.plan.jobs) > 0 {
		rec.job = c.plan.jobs[o.job]
	}
	t.attempted++
	var lat time.Duration
	switch o.kind {
	case opPlan, opReplan:
		var res sailor.PlanResult
		var err error
		start := time.Now()
		id := c.tr.begin(spanClientCall)
		if o.kind == opPlan {
			res, err = c.api.Plan(ctx, rec.job.name, o.pool, o.obj, o.cons)
		} else {
			rec.prev = c.last[o.job]
			res, err = c.api.Replan(ctx, rec.job.name, rec.prev, o.pool, o.obj, o.cons)
		}
		c.tr.end(id)
		lat = time.Since(start)
		if err != nil {
			t.fail("%s %s: %v", rec.job.name, kindName(o.kind), err)
			return
		}
		if msg := checkResult(res, o.pool, o.cons); msg != "" {
			t.fail("%s %s: %s", rec.job.name, kindName(o.kind), msg)
		}
		c.last[o.job] = res.Plan
		rec.res = res
		if foreground {
			t.notePlan(res, rec.job.gpus)
		}
	case opFleetStep:
		start := time.Now()
		id := c.tr.begin(spanClientCall)
		broken, err := c.api.FleetEvent(o.event)
		var steps []sailor.RebalanceStep
		if err == nil {
			steps, err = c.api.Rebalance(ctx)
		}
		c.tr.end(id)
		lat = time.Since(start)
		if err != nil {
			t.fail("fleet step: %v", err)
			return
		}
		c.capacity.Add(o.event.Zone, o.event.GPU, o.event.Delta)
		t.events++
		t.broken += len(broken)
		for _, s := range steps {
			t.rebalSteps++
			if s.Result == nil {
				t.waitSteps++
				continue
			}
			res := s.Result.Result()
			msg := checkResult(res, c.capacity, sailor.Constraints{})
			if msg == "" && c.fleetCap > 0 && res.Plan.GPUCount() > c.fleetCap {
				msg = fmt.Sprintf("plan leases %d GPUs over the per-job cap %d", res.Plan.GPUCount(), c.fleetCap)
			}
			if msg != "" {
				t.fail("rebalance %s: %s", s.Job, msg)
			}
			if foreground {
				t.notePlan(res, a100Only)
			}
		}
		rec.broken, rec.steps = broken, steps
	case opPoll:
		start := time.Now()
		id := c.tr.begin(spanClientCall)
		fs, err := c.api.FleetStats()
		read := time.Since(start)
		var st sailor.ServiceStats
		if err == nil {
			st, err = c.api.Stats()
		}
		c.tr.end(id)
		lat = time.Since(start)
		if err != nil {
			t.fail("dashboard poll: %v", err)
			return
		}
		if timed {
			t.pollLat = append(t.pollLat, read)
		}
		if msg := checkFleetStats(fs); msg != "" {
			t.fail("fleet stats v%d: %s", fs.Version, msg)
		}
		if st.JournalError != "" {
			t.fail("journal_error: %s", st.JournalError)
		}
		rec.fstats, rec.stats = fs, st
	}
	if foreground {
		t.lat = append(t.lat, lat)
	}
	if c.keep {
		t.records = append(t.records, rec)
	}
}

func kindName(k opKind) string {
	return [...]string{"plan", "replan", "fleet-step", "poll"}[k]
}

// notePlan accounts one returned plan of a foreground op: the digest, the
// quality mean, the search telemetry, and the distinct-plan set.
func (t *tally) notePlan(res sailor.PlanResult, gpus []sailor.GPUType) {
	doc, err := json.Marshal(wire.FromPlan(res.Plan))
	if err != nil {
		t.fail("encode plan: %v", err)
		return
	}
	t.digest.Write(doc)
	t.plans++
	t.sumLogTput += math.Log(res.Estimate.Throughput())
	t.explored += res.Explored
	t.cacheHits += res.CacheHits
	if res.SpeculativeHit {
		// The reply carries the prefetch's search time; that search ran
		// before the request arrived, not on its path.
		t.specServed++
	} else {
		t.searchOn += res.SearchTime
	}
	key := fmt.Sprint(gpus) + planner.PlanKey(res.Plan)
	if _, ok := t.distinct[key]; !ok {
		t.distinct[key] = distinctPlan{gpus: gpus, plan: res.Plan}
	}
}

// checkResult validates one planner result against the pool (or fleet
// capacity) it was planned for and its constraints; "" means valid.
func checkResult(res sailor.PlanResult, pool *sailor.Pool, cons sailor.Constraints) string {
	switch {
	case res.Degraded:
		return "degraded reply (deadline-cut search answered with the incumbent)"
	case res.Plan.Validate(benchModel().Layers) != nil:
		return "invalid plan: " + res.Plan.Validate(benchModel().Layers).Error()
	case !pool.CanFit(res.Plan):
		return fmt.Sprintf("plan of %d GPUs does not fit its pool", res.Plan.GPUCount())
	case !res.Estimate.FitsMemory:
		return "plan does not fit GPU memory"
	case res.Estimate.Throughput() <= 0:
		return "estimate has no throughput"
	case !cons.Satisfied(res.Estimate.IterTime, res.Estimate.Cost()):
		return fmt.Sprintf("estimate %.3f it/s violates constraints %+v", res.Estimate.Throughput(), cons)
	}
	return ""
}

// checkFleetStats re-derives the ledger's safety invariant from a snapshot:
// in every (zone, GPU type) cell the leases sum to at most the capacity.
func checkFleetStats(fs sailor.FleetStats) string {
	left := fs.Capacity.Cluster()
	for _, le := range fs.Leases {
		if err := left.Subtract(le.Plan.Core()); err != nil {
			return fmt.Sprintf("lease %q oversubscribes the fleet: %v", le.Job, err)
		}
	}
	return ""
}

// countingConn counts the bytes a client connection moves; it is the
// DialConfig.Dialer seam's conn.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// dialCounting connects a sailor.Client whose traffic adds to bytes.
func dialCounting(addr string, bytes *atomic.Int64) (*sailor.Client, error) {
	return sailor.DialWith(addr, sailor.DialConfig{Dialer: func(addr string) (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, bytes: bytes}, nil
	}})
}
