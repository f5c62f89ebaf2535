package main

// The four workloads. Each is a pure function of (seed, op count): the same
// pair yields the same clients, jobs and op sequences on every commit, and
// the daemon only ever sees the generated requests, never the seed.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/sailor"
)

type opKind int

const (
	opPlan      opKind = iota // cold Plan of op.pool
	opReplan                  // warm Replan of op.pool from the job's last plan
	opFleetStep               // FleetEvent(op.event) then Rebalance
	opPoll                    // FleetStats + Stats, the dashboard's read
)

// op is one request of a client's closed loop.
type op struct {
	kind  opKind
	job   int // index into clientPlan.jobs
	pool  *sailor.Pool
	obj   sailor.Objective
	cons  sailor.Constraints
	event sailor.TraceEvent
}

type jobSpec struct {
	name     string
	gpus     []sailor.GPUType
	priority int
}

// clientPlan is everything one client connection does in a run.
type clientPlan struct {
	jobs []jobSpec
	warm []op // untimed warm-up
	ops  []op // the timed window
	// think is the pause after each reply.
	think time.Duration
	// background clients cycle over ops until the foreground clients are
	// done. Their replies are validated and counted, but their latencies
	// are not the workload's op.
	background bool
}

// workload names one traffic mix. opsPerSecond sizes the fixed op count:
// a run of s seconds issues opsPerSecond*s timed ops after a warm-up of a
// tenth of that, so the timed window lasts about s seconds on the two-core
// machine the constants were sized on, and does the same work everywhere.
type workload struct {
	name         string
	why          string
	opsPerSecond int
	durable      bool // daemon runs with -data-dir and -fsync always
	fleetCap     int  // > 0: fleet mode with this per-job cap
	build        func(seed int64, n int) []clientPlan
}

// fleetJobs is how many prioritised jobs contend in fleet-durable.
const fleetJobs = 8

var workloads = []workload{
	{
		name:         "cold-hetero",
		why:          "30 ops/s of never-repeating cold Plan calls on A100+V100 pools: planner and sim do >95% of the work; rpc, wire, speculation and persist almost none",
		opsPerSecond: 30,
		build:        buildColdHetero,
	},
	{
		name:         "warm-churn",
		why:          "1500 ops/s of Replan calls, 2 clients x 4 tenants cycling scenario traces: speculation and warm cache answer, so client, rpc, wire and admission own the latency",
		opsPerSecond: 1500,
		build:        buildWarmChurn,
	},
	{
		name:         "fleet-durable",
		why:          "550 ops/s of FleetEvent+Rebalance steps on 8 jobs with fsync always, a dashboard polling beside, then kill -9 and restart: ledger, journal and fat replies do the work",
		opsPerSecond: 550,
		durable:      true,
		fleetCap:     8,
		build:        buildFleetDurable,
	},
	{
		name:         "mixed-tenants",
		why:          "1000 ops/s of warm Replan calls over 12 tenants while a second client issues cold Plan calls every 50 ms: one semaphore, one heap and the prefetcher serve both",
		opsPerSecond: 1000,
		build:        buildMixedTenants,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var (
	zoneA100   = sailor.GCPZone("us-central1", 'a')
	zoneV100   = sailor.GCPZone("us-central1", 'b')
	zoneRemote = sailor.GCPZone("europe-west4", 'a')
	heteroGPUs = []sailor.GPUType{sailor.A100, sailor.V100}
	a100Only   = []sailor.GPUType{sailor.A100}
)

// The cold pools are points of one fixed lattice over the three-zone,
// two-region shape: 8-32 A100 and 8-32 V100 in sibling zones plus 0-16
// remote A100, 10625 combinations in all. Point i is combination
// i*coldStride mod 10625, which scatters consecutive points over all three
// axes, so any prefix of the lattice spans the pool sizes evenly and never
// repeats a pool. The seed shuffles the order the points are requested in
// and deals them to the clients: every seed asks for the same pools, so the
// work — and the plans' quality — is the same on every seed, and what a
// seed changes is what meets what.
const (
	coldCombos = 25 * 25 * 17
	coldStride = 4409 // coprime to coldCombos
)

// coldFloor is the min-cost ops' throughput floor in iterations/s. The best
// any plan reaches on the smallest of these pools is 0.09, so 0.08 binds on
// them and stays feasible on every one.
const coldFloor = 0.08

// coldOps returns lattice points [from, to) as cold Plan ops in seeded
// order. Every third point minimises cost under the throughput floor; the
// rest maximise throughput unconstrained.
func coldOps(rng *rand.Rand, from, to int) []op {
	ops := make([]op, 0, to-from)
	for i := from; i < to; i++ {
		k := i * coldStride % coldCombos
		pool := sailor.NewPool().Set(zoneA100, sailor.A100, 8+k%25).Set(zoneV100, sailor.V100, 8+k/25%25)
		if remote := k / 625; remote > 0 {
			pool.Set(zoneRemote, sailor.A100, remote)
		}
		o := op{kind: opPlan, pool: pool, obj: sailor.MaxThroughput}
		if i%3 == 2 {
			o.obj, o.cons = sailor.MinCost, sailor.Constraints{MinThroughput: coldFloor}
		}
		ops = append(ops, o)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func buildColdHetero(seed int64, n int) []clientPlan {
	rng := rand.New(rand.NewSource(seed))
	warm := n / 10
	plans := make([]clientPlan, 2)
	for c := range plans {
		plans[c].jobs = []jobSpec{{name: fmt.Sprintf("cold-%d", c), gpus: heteroGPUs}}
	}
	// Deal the ops round-robin so both clients see the same mix.
	for i, o := range coldOps(rng, 0, warm) {
		plans[i%2].warm = append(plans[i%2].warm, o)
	}
	for i, o := range coldOps(rng, warm, warm+n) {
		plans[i%2].ops = append(plans[i%2].ops, o)
	}
	return plans
}

var (
	churnScenarios = []string{"preemption-storm", "diurnal-wave", "zone-outage", "geo-shift"}
	churnBases     = []int{16, 24, 32}
)

// churnClient builds one client of A100 tenants. Tenant slot s cycles the
// distinct availability snapshots of scenario s%4 at base s%3, from a trace
// whose own seed is the slot: the traces are the same on every run, and the
// benchmark seed decides which client position each slot takes (slots) and
// where in its cycle each tenant starts. Over a window of many cycles every
// seed therefore requests the same pools about equally often. The client
// walks its tenants round-robin; a tenant's first op is its cold Plan, every
// later one a warm Replan from the plan the daemon returned before.
func churnClient(rng *rand.Rand, prefix string, slots []int, warm, n int) clientPlan {
	var cp clientPlan
	tenants := len(slots)
	pools := make([][]*sailor.Pool, tenants)
	for t, slot := range slots {
		name := churnScenarios[slot%len(churnScenarios)]
		sc, ok := sailor.ScenarioByName(name)
		if !ok {
			panic("loadgen: scenario " + name + " is not registered")
		}
		cycle := sc.TraceWith(int64(slot), sailor.ScenarioOpts{Base: churnBases[slot%len(churnBases)]}).DistinctPools()
		start := rng.Intn(len(cycle))
		pools[t] = append(append([]*sailor.Pool(nil), cycle[start:]...), cycle[:start]...)
		cp.jobs = append(cp.jobs, jobSpec{name: fmt.Sprintf("%s-t%d", prefix, t), gpus: a100Only})
	}
	if warm < tenants {
		warm = tenants // every tenant's cold first plan belongs to the warm-up
	}
	for i := 0; i < warm+n; i++ {
		t, step := i%tenants, i/tenants
		o := op{kind: opReplan, job: t, pool: pools[t][step%len(pools[t])], obj: sailor.MaxThroughput}
		if step == 0 {
			o.kind = opPlan
		}
		if i < warm {
			cp.warm = append(cp.warm, o)
		} else {
			cp.ops = append(cp.ops, o)
		}
	}
	return cp
}

func buildWarmChurn(seed int64, n int) []clientPlan {
	rng := rand.New(rand.NewSource(seed))
	slots := rng.Perm(8)
	return []clientPlan{
		churnClient(rng, "churn-0", slots[:4], n/20, n/2),
		churnClient(rng, "churn-1", slots[4:], n/20, n-n/2),
	}
}

// stormRing is how many distinct preemption storms the fleet workload
// chains; the seed picks the storm the chain starts at.
const stormRing = 64

// stormSteps chains preemption-storm traces (base 32, one zone of A100s)
// into n capacity moves, walking a fixed ring of storms from a seeded
// start. A storm ends at its base level and the next one starts from zero,
// so each step carries the delta from the fleet's current level and the
// chain replays against one ledger without drift.
func stormSteps(seed int64, n int) []op {
	ops := make([]op, 0, n)
	level := 0
	for k := rand.New(rand.NewSource(seed)).Intn(stormRing); len(ops) < n; k++ {
		ev := sailor.ScenarioPreemptionStorm().TraceWith(int64(k%stormRing), sailor.ScenarioOpts{Base: 32}).Events
		cur := 0
		for i := 0; i < len(ev) && len(ops) < n; {
			at := ev[i].At
			for ; i < len(ev) && ev[i].At == at; i++ {
				if cur += ev[i].Delta; cur < 0 {
					cur = 0
				}
			}
			if cur == level {
				continue
			}
			ops = append(ops, op{kind: opFleetStep, event: sailor.TraceEvent{
				At: time.Duration(len(ops)) * time.Minute, Zone: zoneA100, GPU: sailor.A100, Delta: cur - level,
			}})
			level = cur
		}
	}
	return ops
}

func buildFleetDurable(seed int64, n int) []clientPlan {
	warm := n / 10
	steps := stormSteps(seed, warm+n)
	driver := clientPlan{warm: steps[:warm], ops: steps[warm:]}
	for j := 0; j < fleetJobs; j++ {
		driver.jobs = append(driver.jobs, jobSpec{name: fmt.Sprintf("fleet-%d", j), gpus: a100Only, priority: fleetJobs - j})
	}
	dashboard := clientPlan{ops: []op{{kind: opPoll}}, think: 10 * time.Millisecond, background: true}
	return []clientPlan{driver, dashboard}
}

// mixedBackgroundOps is the length of the background client's cold-plan
// cycle; at a 50 ms think time a run never gets through it twice.
const mixedBackgroundOps = 1024

func buildMixedTenants(seed int64, n int) []clientPlan {
	rng := rand.New(rand.NewSource(seed))
	bg := clientPlan{
		jobs:       []jobSpec{{name: "mixed-cold", gpus: heteroGPUs}},
		ops:        coldOps(rng, 0, mixedBackgroundOps),
		think:      50 * time.Millisecond,
		background: true,
	}
	return []clientPlan{churnClient(rng, "mixed", rng.Perm(12), n/10, n), bg}
}
