package runtime

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/planner"
	"repro/internal/trace"
)

// PhaseTimings is the §5.5 reconfiguration breakdown, in virtual seconds
// except Planning, which is measured wall-clock of the real planner call.
type PhaseTimings struct {
	Planning   float64
	Cleanup    float64
	Broadcast  float64
	GroupInit  float64
	ModelRedef float64
	Dataloader float64
	CkptLoad   float64
	// RolledBackIters counts training iterations lost to the checkpoint
	// rollback.
	RolledBackIters int
	// PlanCacheHits is 1 when the planner's warm cache answered the replan
	// with a stored search result (a pool seen before), 0 when it searched.
	PlanCacheHits int
	// PlanExplored is the replan's search-node count: 0 when the warm cache
	// answered, which is where the Planning savings come from.
	PlanExplored int
}

// Total returns the full downtime of one reconfiguration.
func (p PhaseTimings) Total() float64 {
	return p.Planning + p.Cleanup + p.Broadcast + p.GroupInit + p.ModelRedef + p.Dataloader + p.CkptLoad
}

// Virtual phase costs, calibrated to the §5.5 measurements on 16 V100s
// (cleanup 3 s, NCCL groups 4.5 s, model redefinition 2 s). Group init
// grows with world size; the rest are constants.
const (
	cleanupSec        = 3.0
	groupInitBaseSec  = 2.1
	groupInitPerRank  = 0.15
	modelRedefSec     = 2.0
	dataloaderSec     = 0.5
	checkpointLoadSec = 0.8
)

// broadcast cost model: topology fan-out over the control plane
// (~1.25 s at 16 workers in §5.5), growing gently with worker count.
func broadcastSec(workers int) float64 {
	return 0.8 + 0.028*float64(workers)
}

// Report summarises an elastic training run.
type Report struct {
	IterationsDone   int
	VirtualSeconds   float64
	Reconfigs        []PhaseTimings
	PlansUsed        []core.Plan
	LostIterations   int
	CheckpointsTaken int
	// PlanningSeconds is the cumulative wall-clock the run spent inside
	// the planner across every reconfiguration.
	PlanningSeconds float64
	// PlanCacheHits is the number of replans the warm cache answered (sum
	// of the per-reconfig PlanCacheHits).
	PlanCacheHits int
}

// TotalDowntimeSeconds sums the downtime of every reconfiguration — the
// headline number the replay ledgers (human and JSON) report.
func (r Report) TotalDowntimeSeconds() float64 {
	total := 0.0
	for _, t := range r.Reconfigs {
		total += t.Total()
	}
	return total
}

// Controller is the Sailor job controller: it tracks which ranks are
// alive, watches availability, re-invokes the planner on changes, and
// drives kill-free reconfiguration (§4.4).
type Controller struct {
	Cfg  ControllerConfig
	topo *Topology
	// live[r] reports whether rank r of topo still runs; a preemption
	// clears it, a reconfiguration restarts every rank of the new topology.
	live []bool
	ckpt *CheckpointManager
	now  float64 // virtual time, seconds
	iter int     // global iteration counter
	// warm is the controller's persistent warm-start cache, attached to an
	// ephemeral copy of Cfg.Planner on every reconfiguration — so warm
	// replanning neither mutates the caller's planner nor misses in-place
	// changes the caller makes to it between events.
	warm *planner.WarmCache
}

// ControllerConfig wires the controller's collaborators.
type ControllerConfig struct {
	Planner *planner.Planner
	GT      *groundtruth.Engine
	// CheckpointEvery is the checkpoint interval in iterations.
	CheckpointEvery int
	// CheckpointFlushSec is the async snapshot flush latency.
	CheckpointFlushSec float64
}

// NewController returns an idle controller.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 10
	}
	if cfg.CheckpointFlushSec == 0 {
		cfg.CheckpointFlushSec = 5
	}
	return &Controller{
		Cfg:  cfg,
		ckpt: NewCheckpointManager(cfg.CheckpointEvery, cfg.CheckpointFlushSec),
		warm: planner.NewWarmCache(),
	}
}

// planner returns the planner to run this reconfiguration with: a fresh
// copy of Cfg.Planner (so in-place changes the caller makes between events
// always take effect, and warm state never leaks into the caller's
// planner) with the controller's persistent warm cache attached — the
// §4.2 replan hot path. A caller-injected shared cache takes precedence;
// if the caller changed the planner's configuration mid-run, the cache's
// fingerprint check makes the next search cold rather than wrong.
func (c *Controller) planner() *planner.Planner {
	cp := *c.Cfg.Planner
	if cp.Opts.Warm == nil {
		cp.Opts.Warm = c.warm
	}
	return &cp
}

// Deploy plans against a pool and starts every rank of the result. It
// returns the reconfiguration timings of the initial launch.
func (c *Controller) Deploy(pool *cluster.Pool) (PhaseTimings, error) {
	return c.reconfigure(pool)
}

// reconfigure is the kill-free path of §4.4: re-plan, have surviving
// ranks destroy groups and free memory, broadcast the new topology, set up
// groups/model/dataloaders, and resume from the newest durable checkpoint.
// Ranks act in parallel, so each phase costs one rank's share.
func (c *Controller) reconfigure(pool *cluster.Pool) (PhaseTimings, error) {
	var t PhaseTimings

	// Phase 1: planning (real planner, wall-clock measured). After the
	// first deploy the controller replans warm: the deployed plan seeds a
	// fallback incumbent and the planner's warm cache answers a pool an
	// earlier replan already solved.
	start := time.Now()
	pl := c.planner()
	var res planner.Result
	var err error
	if c.topo != nil {
		res, err = pl.Replan(c.topo.Plan, pool)
	} else {
		res, err = pl.Plan(pool)
	}
	if err != nil {
		return t, fmt.Errorf("runtime: replan failed: %w", err)
	}
	t.Planning = time.Since(start).Seconds()
	t.PlanCacheHits = res.CacheHits
	t.PlanExplored = res.Explored

	topo, err := BuildTopology(res.Plan)
	if err != nil {
		return t, err
	}

	// Phase 2: surviving ranks destroy communicators and free GPU memory
	// (kill-free: processes stay up). Preempted ranks have nothing to
	// clean up.
	if slices.Contains(c.live, true) {
		t.Cleanup = cleanupSec
	}

	// Phase 3: broadcast plan + rank topology.
	t.Broadcast = broadcastSec(topo.WorldSize)

	// Phases 4-6: every rank of the new topology initialises communicators
	// (a cost growing with world size), redefines model and optimizer
	// state, and rebuilds its dataloader. New ranks' start-up rides the
	// group-init phase.
	t.GroupInit = groupInitBaseSec + groupInitPerRank*float64(topo.WorldSize)
	t.ModelRedef = modelRedefSec
	t.Dataloader = dataloaderSec
	c.live = make([]bool, topo.WorldSize)
	for r := range c.live {
		c.live[r] = true
	}

	// Phase 7: resume from the newest durable checkpoint.
	resume := c.ckpt.Rollback(c.now)
	if c.iter > resume {
		t.RolledBackIters = c.iter - resume
		c.iter = resume
	}
	t.CkptLoad = checkpointLoadSec

	c.topo = topo
	c.now += t.Total()
	return t, nil
}

// Plan returns the currently deployed plan.
func (c *Controller) Plan() (core.Plan, error) {
	if c.topo == nil {
		return core.Plan{}, fmt.Errorf("runtime: no plan deployed")
	}
	return c.topo.Plan, nil
}

// TrainFor advances training by `seconds` of virtual time, returning the
// iterations completed. Iteration duration comes from the ground-truth
// engine for the deployed plan.
func (c *Controller) TrainFor(seconds float64) (int, error) {
	if c.topo == nil {
		return 0, fmt.Errorf("runtime: not deployed")
	}
	est, err := c.Cfg.GT.Measure(c.topo.Plan)
	if err != nil {
		return 0, err
	}
	if !est.FitsMemory {
		return 0, fmt.Errorf("runtime: deployed plan OOMs")
	}
	done := 0
	budget := seconds
	for budget >= est.IterTime {
		budget -= est.IterTime
		c.now += est.IterTime
		c.iter++
		done++
		c.ckpt.OnIteration(c.iter, c.now)
	}
	c.now += budget
	return done, nil
}

// Iteration returns the global iteration counter.
func (c *Controller) Iteration() int { return c.iter }

// Now returns the virtual clock.
func (c *Controller) Now() float64 { return c.now }

// KillWorkersOn simulates preemption of every live rank placed on
// (zone, gpu): the availability trace reclaimed those GPUs. It returns how
// many ranks died.
func (c *Controller) KillWorkersOn(z core.Zone, g core.GPUType) int {
	if c.topo == nil {
		return 0
	}
	killed := 0
	for r, alive := range c.live {
		info, err := c.topo.Locate(r)
		if err != nil {
			continue
		}
		if alive && info.Zone == z && info.GPU == g {
			c.live[r] = false
			killed++
		}
	}
	return killed
}

// Shutdown stops every rank.
func (c *Controller) Shutdown() {
	c.live = nil
}

// RunElastic replays an availability trace (§5.2's dynamic environments):
// deploy on the initial pool, train between events, reconfigure at each
// availability change (killing preempted ranks first), and report
// iterations, downtime, and rollbacks.
func (c *Controller) RunElastic(tr *trace.Trace) (Report, error) {
	defer c.Shutdown()
	var rep Report

	pool := tr.PoolAt(0)
	lastPool := ""
	if pool.TotalGPUs() > 0 {
		t, err := c.Deploy(pool)
		if err == nil {
			rep.Reconfigs = append(rep.Reconfigs, t)
			p, _ := c.Plan()
			rep.PlansUsed = append(rep.PlansUsed, p)
			lastPool = pool.String()
		}
	}

	prev := time.Duration(0)
	for _, ev := range tr.Events {
		if ev.At > prev {
			span := ev.At - prev
			if c.topo != nil {
				n, err := c.TrainFor(span.Seconds())
				if err == nil {
					rep.IterationsDone += n
				}
			} else {
				// No deployment (pre-deploy or total blackout): the trace
				// clock still advances, so in-flight checkpoint flushes can
				// land and the report spans the real horizon.
				c.now += span.Seconds()
			}
		}
		prev = ev.At
		// Preemption: workers on reclaimed capacity die; the controller's
		// monitor notices and triggers a replan.
		if ev.Delta < 0 {
			c.KillWorkersOn(ev.Zone, ev.GPU)
		}
		pool := tr.PoolAt(ev.At)
		if pool.TotalGPUs() == 0 {
			// Total blackout: nothing to run on. Tear the deployment down
			// so no iterations accrue until capacity returns (the next
			// non-empty snapshot always replans), and book the rollback
			// now — workers died with everything past the last durable
			// checkpoint, and if the trace ends in the blackout no later
			// reconfigure will account for the loss.
			before := c.iter
			resume := c.ckpt.Rollback(c.now)
			if c.iter > resume {
				c.iter = resume
			}
			rep.LostIterations += before - c.iter
			c.Shutdown()
			c.topo = nil
			lastPool = ""
			continue
		}
		// Only replan when availability actually changed; the monitor
		// coalesces no-op events.
		if s := pool.String(); s == lastPool {
			continue
		} else {
			lastPool = s
		}
		before := c.iter
		t, err := c.reconfigure(pool)
		if err != nil {
			continue
		}
		rep.LostIterations += before - c.iter
		rep.Reconfigs = append(rep.Reconfigs, t)
		p, _ := c.Plan()
		rep.PlansUsed = append(rep.PlansUsed, p)
	}
	if tr.Horizon > prev {
		span := (tr.Horizon - prev).Seconds()
		if c.topo != nil {
			n, err := c.TrainFor(span)
			if err == nil {
				rep.IterationsDone += n
			}
		} else {
			c.now += span
		}
	}
	rep.VirtualSeconds = c.now
	rep.CheckpointsTaken = c.ckpt.LastCompleted(c.now) / max(1, c.Cfg.CheckpointEvery)
	for _, t := range rep.Reconfigs {
		rep.PlanningSeconds += t.Planning
		rep.PlanCacheHits += t.PlanCacheHits
	}
	return rep, nil
}
