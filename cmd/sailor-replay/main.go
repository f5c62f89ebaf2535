// Command sailor-replay runs a named availability scenario and prints the
// reconfiguration ledger: every replan's plan, downtime breakdown, and
// warm-start cache utilisation.
//
// In-process (default) it replays the scenario through the elastic
// controller. With -server it drives a sailor-serve daemon instead: every
// distinct availability snapshot becomes a plan/replan request, exercising
// the §5.5 control-plane loop over the wire. With -fleet it drives N
// contending jobs through one shared cluster-state ledger: every event
// step mutates the fleet, preempts leases in deterministic admission
// order, and rebalances the broken jobs warm, printing the per-job
// reconfiguration ledger. -json emits the versioned wire-schema ledger in
// every mode.
//
// With -trace it replays an external availability trace instead of a named
// scenario: a versioned JSON trace document (or a .csv log, imported and
// canonicalized), validated at the boundary, driving the same in-process
// controller or fleet paths. Trace cap events (demand autoscaling) are
// applied to the fleet ledger before the availability events of the same
// instant, evicting oversized leases in deterministic admission order.
//
// Usage:
//
//	sailor-replay -list
//	sailor-replay -scenario preemption-storm
//	sailor-replay -scenario zone-outage -seed 7 -model gptneo27b -base 16
//	sailor-replay -scenario preemption-storm -server 127.0.0.1:7477 -json
//	sailor-replay -scenario preemption-storm -fleet -jobs 3
//	sailor-replay -trace spot-log.trace.json -fleet -jobs 3
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/wire"
	"repro/sailor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sailor-replay: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// replayOutput is the -json ledger: versioned, built on the wire codec.
// Local (controller) replays carry Report; -server replays carry Steps,
// one planner result per distinct availability snapshot; -fleet replays
// carry Fleet, the per-job reconfiguration ledger.
type replayOutput struct {
	V              int               `json:"v"`
	Scenario       string            `json:"scenario"`
	TraceFile      string            `json:"trace_file,omitempty"`
	Description    string            `json:"description"`
	Model          string            `json:"model"`
	Seed           int64             `json:"seed"`
	HorizonSeconds float64           `json:"horizon_seconds"`
	Events         int               `json:"events"`
	Workers        int               `json:"workers"`
	Server         string            `json:"server,omitempty"`
	Report         *reportDoc        `json:"report,omitempty"`
	Steps          []wire.PlanResult `json:"steps,omitempty"`
	Fleet          *fleetDoc         `json:"fleet,omitempty"`
}

// fleetDoc is the -fleet -json ledger: one entry per event timestamp.
type fleetDoc struct {
	Jobs       int         `json:"jobs"`
	JobCapGPUs int         `json:"job_cap_gpus"`
	Steps      []fleetStep `json:"steps"`
}

// fleetStep is one event timestamp of a fleet replay: the availability
// events applied, the leases they broke, the rebalance outcomes, and the
// resulting lease table.
type fleetStep struct {
	AtSeconds    float64              `json:"at_seconds"`
	Events       int                  `json:"events"`
	CapGPUs      *int                 `json:"cap_gpus,omitempty"`
	CapacityGPUs int                  `json:"capacity_gpus"`
	FreeGPUs     int                  `json:"free_gpus"`
	Broken       []string             `json:"broken,omitempty"`
	Rebalance    []wire.RebalanceStep `json:"rebalance"`
	Leases       []leaseRow           `json:"leases"`
}

// leaseRow is the compact per-job lease table entry of the fleet ledger
// output (the full plans already appear in the rebalance results).
type leaseRow struct {
	Job      string `json:"job"`
	Priority int    `json:"priority"`
	GPUs     int    `json:"gpus"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sailor-replay", flag.ContinueOnError)
	list := fs.Bool("list", false, "list registered scenarios and exit")
	name := fs.String("scenario", "", "scenario to replay (see -list)")
	traceFile := fs.String("trace", "", "replay an external trace file (versioned JSON document, or .csv import) instead of a -scenario")
	seed := fs.Int64("seed", 42, "scenario seed")
	modelName := fs.String("model", "OPT-350M", "model from the zoo (see internal/model)")
	workers := fs.Int("workers", runtime.NumCPU(), "planner search parallelism (goroutines; in-process mode)")
	horizon := fs.Duration("horizon", 0, "override the scenario horizon (0 = scenario default)")
	base := fs.Int("base", 0, "override the scenario base GPU count (0 = scenario default)")
	server := fs.String("server", "", "drive a sailor-serve daemon at host:port instead of the in-process controller")
	job := fs.String("job", "sailor-replay", "job name to open on the service (with -server)")
	fleetMode := fs.Bool("fleet", false, "drive N contending jobs through one shared cluster-state ledger")
	jobs := fs.Int("jobs", 2, "number of contending jobs (with -fleet)")
	fleetCap := fs.Int("fleet-cap", 0, "per-job lease bound in GPUs (with -fleet; 0 = auto: half the scenario base, negative = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the versioned wire-schema JSON ledger instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		printScenarios(out)
		return nil
	}
	// The replay source: a registered scenario, or an external trace file.
	var (
		tr      *sailor.Trace
		srcName string
		srcDesc string
		gpus    []sailor.GPUType
		defBase int
	)
	if *traceFile != "" {
		if *name != "" {
			return fmt.Errorf("-trace and -scenario are mutually exclusive")
		}
		if *server != "" {
			return fmt.Errorf("-trace replays in-process; drop -server")
		}
		if *horizon != 0 || *base != 0 {
			return fmt.Errorf("-horizon and -base scale scenario families; an external trace fixes both")
		}
		tf, err := loadTraceFile(*traceFile)
		if err != nil {
			return err
		}
		tr, srcName, srcDesc = tf.Trace, tf.Name, tf.Description
		gpus = tr.GPUTypes()
		defBase = tr.PeakGPUs()
	} else {
		sc, ok := sailor.ScenarioByName(*name)
		if !ok {
			var b strings.Builder
			printScenarios(&b)
			if *name == "" {
				return fmt.Errorf("missing -scenario or -trace; registered scenarios:\n%s", b.String())
			}
			return fmt.Errorf("unknown scenario %q; registered scenarios:\n%s", *name, b.String())
		}
		tr = sc.TraceWith(*seed, sailor.ScenarioOpts{Horizon: *horizon, Base: *base})
		srcName, srcDesc, gpus = sc.Name, sc.Description, sc.GPUs
		defBase = *base
		if defBase <= 0 {
			defBase = sc.Defaults.Base
		}
	}
	m, err := sailor.ModelByName(*modelName)
	if err != nil {
		return err
	}
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	doc := replayOutput{
		V:              sailor.WireVersion,
		Scenario:       srcName,
		TraceFile:      *traceFile,
		Description:    srcDesc,
		Model:          m.Name,
		Seed:           *seed,
		HorizonSeconds: tr.Horizon.Seconds(),
		Events:         len(tr.Events),
		Workers:        *workers,
		Server:         *server,
	}

	if *fleetMode {
		if *server != "" {
			return fmt.Errorf("-fleet runs in-process; drop -server")
		}
		if *jobs < 1 {
			return fmt.Errorf("-jobs must be >= 1")
		}
		cap := *fleetCap
		if cap == 0 {
			// Auto cap: half the scenario base, or half the trace's peak
			// availability for an external trace.
			cap = defBase / 2
			if cap < 1 {
				cap = 1
			}
		} else if cap < 0 {
			cap = 0
		}
		fd, err := replayFleet(m, gpus, tr, *jobs, cap, *workers)
		if err != nil {
			return err
		}
		if *jsonOut {
			doc.Fleet = fd
			return writeJSON(out, doc)
		}
		fmt.Fprintf(out, "scenario:  %s — %s\n", srcName, srcDesc)
		fmt.Fprintf(out, "model:     %s   seed: %d   horizon: %s   events: %d   workers: %d\n",
			m.Name, *seed, tr.Horizon, len(tr.Events), *workers)
		fmt.Fprintf(out, "fleet:     %d jobs, per-job cap %d GPUs\n", fd.Jobs, fd.JobCapGPUs)
		fmt.Fprintln(out)
		writeFleetLedger(out, fd)
		return nil
	}

	if *server != "" {
		steps, err := replayViaServer(*server, *job, m, gpus, tr)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(out, docWithSteps(doc, steps))
		}
		fmt.Fprintf(out, "scenario:  %s — %s\n", srcName, srcDesc)
		fmt.Fprintf(out, "model:     %s   seed: %d   horizon: %s   events: %d   server: %s\n",
			m.Name, *seed, tr.Horizon, len(tr.Events), *server)
		fmt.Fprintln(out)
		writeStepLedger(out, steps)
		return nil
	}

	sys, err := sailor.New(m, gpus, sailor.WithWorkers(*workers))
	if err != nil {
		return err
	}
	ctrl := sys.NewController()
	rep, err := ctrl.RunElastic(tr)
	if err != nil {
		return err
	}
	if *jsonOut {
		r := fromReport(rep)
		doc.Report = &r
		return writeJSON(out, doc)
	}
	fmt.Fprintf(out, "scenario:  %s — %s\n", srcName, srcDesc)
	fmt.Fprintf(out, "model:     %s   seed: %d   horizon: %s   events: %d   workers: %d\n",
		m.Name, *seed, tr.Horizon, len(tr.Events), *workers)
	fmt.Fprintln(out)
	writeLedger(out, rep)
	return nil
}

func docWithSteps(doc replayOutput, steps []sailor.PlanResult) replayOutput {
	doc.Steps = make([]wire.PlanResult, len(steps))
	for i, s := range steps {
		doc.Steps[i] = wire.FromResult(s)
	}
	return doc
}

func writeJSON(out io.Writer, doc replayOutput) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// loadTraceFile reads an external trace from disk: a versioned JSON trace
// document, or a CSV availability log (by .csv extension) imported and
// canonicalized to the same shape.
func loadTraceFile(path string) (*sailor.TraceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return sailor.LoadTraceCSV(data)
	}
	return sailor.LoadTrace(data)
}

// replayViaServer turns the trace's distinct availability snapshots into
// the §5.5 control-plane request sequence: plan the first, then replan
// each successive snapshot from the previous response's plan.
func replayViaServer(addr, job string, m sailor.Model, gpus []sailor.GPUType, tr *sailor.Trace) ([]sailor.PlanResult, error) {
	pools := tr.DistinctPools()
	if len(pools) == 0 {
		return nil, fmt.Errorf("scenario produces no non-empty pools")
	}
	c, err := sailor.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.OpenJob(job, m, gpus, 0); err != nil {
		return nil, err
	}
	defer c.CloseJob(job)
	steps := make([]sailor.PlanResult, 0, len(pools))
	var prev sailor.Plan
	for i, pool := range pools {
		var res sailor.PlanResult
		if i == 0 {
			res, err = c.Plan(context.Background(), job, pool, sailor.MaxThroughput, sailor.Constraints{})
		} else {
			res, err = c.Replan(context.Background(), job, prev, pool, sailor.MaxThroughput, sailor.Constraints{})
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot %d: %w", i, err)
		}
		steps = append(steps, res)
		prev = res.Plan
	}
	return steps, nil
}

// replayFleet drives a trace through one shared cluster-state ledger
// contended by `jobs` jobs (job-0 has the highest priority). Every
// event timestamp becomes one step: cap events move the per-job GPU cap
// first (a quota change takes effect before the availability events of the
// same instant, evicting oversized leases in admission order), then the
// availability events mutate the fleet, the ledger evicts the leases they
// broke in deterministic admission order, and Rebalance replans every
// leaseless job — warm where it deployed before — in priority order. The
// safety invariant (leased capacity never exceeds fleet capacity) is
// asserted after every step.
func replayFleet(m sailor.Model, gpus []sailor.GPUType, tr *sailor.Trace, jobs, cap, workers int) (*fleetDoc, error) {
	ledger := sailor.NewLedger(sailor.NewPool())
	ledger.SetJobCap(cap)
	svc := sailor.NewService(sailor.ServiceConfig{Workers: workers, Fleet: ledger})
	for i := 0; i < jobs; i++ {
		if err := svc.OpenJob(fmt.Sprintf("job-%d", i), m, gpus, jobs-i); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	fd := &fleetDoc{Jobs: jobs, JobCapGPUs: cap}
	events, caps := tr.Events, tr.CapEvents
	ci := 0
	for i := 0; i < len(events) || ci < len(caps); {
		var at time.Duration
		switch {
		case i < len(events) && ci < len(caps) && caps[ci].At <= events[i].At:
			at = caps[ci].At
		case i < len(events):
			at = events[i].At
		default:
			at = caps[ci].At
		}
		step := fleetStep{AtSeconds: at.Seconds()}
		for ; ci < len(caps) && caps[ci].At == at; ci++ {
			newCap := caps[ci].GPUs
			for _, b := range ledger.SetJobCap(newCap) {
				step.Broken = append(step.Broken, b.Job)
			}
			step.CapGPUs = &newCap
		}
		for ; i < len(events) && events[i].At == at; i++ {
			broken, err := svc.FleetEvent(events[i])
			if err != nil {
				return nil, err
			}
			step.Events++
			for _, b := range broken {
				step.Broken = append(step.Broken, b.Job)
			}
		}
		rsteps, err := svc.Rebalance(ctx)
		if err != nil {
			return nil, err
		}
		step.Rebalance = rsteps
		if err := ledger.CheckInvariant(); err != nil {
			return nil, fmt.Errorf("after step t+%s: %w", at, err)
		}
		st, err := svc.FleetStats()
		if err != nil {
			return nil, err
		}
		if st.LeasedGPUs > st.CapacityGPUs {
			return nil, fmt.Errorf("after step t+%s: leased %d GPUs exceed fleet capacity %d",
				at, st.LeasedGPUs, st.CapacityGPUs)
		}
		step.CapacityGPUs, step.FreeGPUs = st.CapacityGPUs, st.FreeGPUs
		for _, le := range st.Leases {
			step.Leases = append(step.Leases, leaseRow{Job: le.Job, Priority: le.Priority, GPUs: le.GPUs})
		}
		fd.Steps = append(fd.Steps, step)
	}
	return fd, nil
}

// writeFleetLedger renders the per-job reconfiguration ledger of a fleet
// replay. Only wall-clock-free fields are printed, so the output is
// byte-identical at any worker count.
func writeFleetLedger(w io.Writer, fd *fleetDoc) {
	fmt.Fprintln(w, "fleet reconfiguration ledger:")
	for i, s := range fd.Steps {
		fmt.Fprintf(w, "step %3d  t+%-9s events=%d  capacity=%d free=%d",
			i, time.Duration(s.AtSeconds*float64(time.Second)).Round(time.Second), s.Events,
			s.CapacityGPUs, s.FreeGPUs)
		if s.CapGPUs != nil {
			fmt.Fprintf(w, "  cap=%d", *s.CapGPUs)
		}
		if len(s.Broken) > 0 {
			fmt.Fprintf(w, "  preempted=%s", strings.Join(s.Broken, ","))
		}
		fmt.Fprintln(w)
		for _, r := range s.Rebalance {
			switch r.Action {
			case "wait":
				fmt.Fprintf(w, "  %-8s %-7s %s\n", r.Job, r.Action, r.Error)
			default:
				res := r.Result
				fmt.Fprintf(w, "  %-8s %-7s gpus=%-3d hits=%-5d explored=%-6d %s\n",
					r.Job, r.Action, res.Plan.Core().GPUCount(), res.CacheHits, res.Explored,
					res.Plan.Core())
			}
		}
		if len(s.Leases) > 0 {
			parts := make([]string, len(s.Leases))
			for j, le := range s.Leases {
				parts[j] = fmt.Sprintf("%s:%d", le.Job, le.GPUs)
			}
			fmt.Fprintf(w, "  leases:  %s\n", strings.Join(parts, "  "))
		}
	}
}

func printScenarios(w io.Writer) {
	for _, s := range sailor.Scenarios() {
		gpus := make([]string, len(s.GPUs))
		for i, g := range s.GPUs {
			gpus[i] = string(g)
		}
		fmt.Fprintf(w, "  %-18s %s (GPUs: %s, horizon %s)\n",
			s.Name, s.Description, strings.Join(gpus, "+"), s.Defaults.Horizon)
	}
}

// writeStepLedger renders the per-snapshot planner results of a -server
// replay.
func writeStepLedger(w io.Writer, steps []sailor.PlanResult) {
	fmt.Fprintln(w, "replan ledger (via server):")
	fmt.Fprintf(w, "  %3s  %4s  %5s  %8s  %s\n", "#", "gpus", "hits", "explored", "plan")
	for i, s := range steps {
		fmt.Fprintf(w, "  %3d  %4d  %5d  %8d  %s\n",
			i, s.Plan.GPUCount(), s.CacheHits, s.Explored, s.Plan)
	}
}

// writeLedger renders the reconfiguration ledger and run summary.
func writeLedger(w io.Writer, rep sailor.Report) {
	fmt.Fprintln(w, "reconfiguration ledger:")
	fmt.Fprintf(w, "  %3s  %4s  %9s  %9s  %5s  %8s  %s\n",
		"#", "gpus", "downtime", "planning", "hits", "explored", "plan")
	for i, t := range rep.Reconfigs {
		gpus, plan := 0, ""
		if i < len(rep.PlansUsed) {
			gpus = rep.PlansUsed[i].GPUCount()
			plan = rep.PlansUsed[i].String()
		}
		fmt.Fprintf(w, "  %3d  %4d  %8.2fs  %8.3fs  %5d  %8d  %s\n",
			i, gpus, t.Total(), t.Planning, t.PlanCacheHits, t.PlanExplored, plan)
	}
	fmt.Fprintln(w, "summary:")
	fmt.Fprintf(w, "  iterations:       %d done, %d lost to rollbacks, %d checkpoints\n",
		rep.IterationsDone, rep.LostIterations, rep.CheckpointsTaken)
	fmt.Fprintf(w, "  reconfigurations: %d, total downtime %.1fs over %.1f virtual hours\n",
		len(rep.Reconfigs), rep.TotalDowntimeSeconds(), rep.VirtualSeconds/3600)
	fmt.Fprintf(w, "  planning:         %.3fs wall-clock total, %d warm-cache hits\n",
		rep.PlanningSeconds, rep.PlanCacheHits)
}
