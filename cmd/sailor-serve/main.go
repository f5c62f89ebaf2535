// Command sailor-serve runs the Sailor planner as a long-lived daemon: a
// multi-tenant sailor.Service hosted over the repository's rpc framing: a
// binary frame header (frame version byte, wire code, call id, deadline,
// method and error lengths) followed by a JSON body, so client and daemon
// must share the frame version byte. Clients open named jobs, then plan,
// replan, and simulate against them; sailor-plan and sailor-replay speak
// the protocol via their -server flag, and any Go program can use
// sailor.Dial.
//
// Usage:
//
//	sailor-serve                              # listen on 127.0.0.1:7477
//	sailor-serve -addr :7477 -max-concurrent 8 -cache 32
//	sailor-serve -fleet us-central1-a:A100-40:64 -fleet-cap 16   # fleet mode
//	sailor-serve -data-dir /var/lib/sailor    # durable: survive kill -9
//	sailor-plan -server 127.0.0.1:7477 -model opt350m -quota zone:A100-40:16
//
// With -fleet the daemon arbitrates one shared capacity ledger across all
// tenants: plans lease GPUs from the fleet's free view (per-job priority,
// optional -fleet-cap fair-share bound), availability events and rebalances
// arrive over the wire, and FleetStats exposes the per-job lease table.
//
// With -data-dir the daemon is durable: every state mutation is journaled
// (fsync policy via -fsync), and on restart the service recovers its open
// jobs, last plans, and fleet ledger — at the exact ledger version — from
// the latest snapshot plus the journal's intact suffix, then continues
// planning bit-identically to an uninterrupted run. When the dir holds a
// previous incarnation's state, that state wins over the -fleet/-fleet-cap
// flags (which describe the first boot). The daemon rotates a fresh snapshot
// whenever the journal outgrows its snapshot (persist.RotateRatio), so a kill
// -9 replays a bounded journal. Without -data-dir it is pure in-memory.
//
// Overload: at most -max-concurrent planner searches run at once; up to
// -max-queue more wait their turn, and anything beyond that is shed with a
// typed overloaded error the client retry policy backs off on. A request
// whose deadline expires mid-search degrades to the job's warm incumbent
// plan (marked degraded in the response) instead of failing.
//
// Chaos (testing only): -chaos arms a fault-schedule file (see
// internal/chaos) against the daemon's own listener and journal —
// connection cuts, delays, refused accepts, failed appends — and
// -chaos-log writes the deterministic fault log on shutdown. The first
// sticky journal error is logged the moment it happens and surfaces in
// Stats as journal_error.
//
// Shutdown is graceful: SIGINT/SIGTERM drains in-flight requests before
// the process exits; queued client calls fail with a typed error. A durable
// daemon writes a final snapshot on the way out, so a clean restart replays
// zero journal records.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/sailor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sailor-serve: ")
	d, err := start(os.Args[1:], os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("draining and shutting down")
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}
}

// daemon is one running sailor-serve: the wire server, the service behind
// it, and (in durable mode) the snapshot+journal store.
type daemon struct {
	srv      *sailor.Server
	svc      *sailor.Service
	store    *persist.Store
	inj      *chaos.Injector
	chaosLog string
}

// Addr returns the bound listen address.
func (d *daemon) Addr() net.Addr { return d.srv.Addr() }

// Close drains in-flight requests (the service runs no work of its own
// beyond them), writes the chaos fault log if one was requested, then — in
// durable mode — rotates a final snapshot so the next boot replays zero
// journal records. A sticky journal error from the session is surfaced
// here.
func (d *daemon) Close() error {
	d.srv.Close()
	if d.chaosLog != "" {
		doc, err := d.inj.MarshalLog()
		if err == nil {
			err = os.WriteFile(d.chaosLog, doc, 0o644)
		}
		if err != nil {
			log.Printf("chaos log: %v", err)
		}
	}
	if d.store == nil {
		return nil
	}
	if err := d.store.Err(); err != nil {
		d.store.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := d.store.Rotate(d.svc.PersistState()); err != nil {
		d.store.Close()
		return fmt.Errorf("final snapshot: %w", err)
	}
	return d.store.Close()
}

// journalHealth interposes on the durable recorder to log the journal's
// first sticky append error the moment it happens — not just at shutdown —
// so silent durability loss is visible in the daemon log. Stats exposes the
// same condition to remote clients via its Err passthrough.
type journalHealth struct {
	*persist.Store
	logged atomic.Bool
}

func (h *journalHealth) check() {
	if err := h.Store.Err(); err != nil && !h.logged.Swap(true) {
		log.Printf("journal unhealthy, writes are no longer durable: %v", err)
	}
}

func (h *journalHealth) RecordOpenJob(job string, m model.Config, gpus []core.GPUType, priority int) {
	h.Store.RecordOpenJob(job, m, gpus, priority)
	h.check()
}

func (h *journalHealth) RecordCloseJob(job string) {
	h.Store.RecordCloseJob(job)
	h.check()
}

func (h *journalHealth) RecordJobPlan(job string, plan core.Plan, obj core.Objective, cons core.Constraints) {
	h.Store.RecordJobPlan(job, plan, obj, cons)
	h.check()
}

func (h *journalHealth) RecordSetFleet(snap fleet.Snapshot) {
	h.Store.RecordSetFleet(snap)
	h.check()
}

func (h *journalHealth) RecordLedgerOp(op fleet.Op) {
	h.Store.RecordLedgerOp(op)
	h.check()
}

// start parses flags, recovers durable state if -data-dir names any, binds
// the listener, and begins serving in the background; the caller owns
// shutdown via the returned daemon's Close.
func start(args []string, out io.Writer) (*daemon, error) {
	fs := flag.NewFlagSet("sailor-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7477", "listen address (host:port; use :0 for an ephemeral port)")
	workers := fs.Int("workers", runtime.NumCPU(), "planner search parallelism per request (goroutines)")
	maxConcurrent := fs.Int("max-concurrent", runtime.NumCPU(), "planner searches running at once across all tenants")
	cache := fs.Int("cache", 16, "profiled systems kept in the shared LRU")
	seed := fs.Uint64("seed", 1, "profiling seed for every system the daemon builds")
	fleetQuota := fs.String("fleet", "", "fleet mode: shared capacity ledger over this quota (zone:gpu:count,...)")
	fleetCap := fs.Int("fleet-cap", 0, "fleet mode: per-job lease bound in GPUs (0 = unlimited)")
	dataDir := fs.String("data-dir", "", "durable mode: snapshot+journal state here and recover it on restart")
	fsync := fs.String("fsync", "always", `journal flush policy: "always" (every record) or "none"`)
	maxQueue := fs.Int("max-queue", 0, "planner requests queued beyond max-concurrent before shedding with overloaded (0 = 8x max-concurrent, -1 = unbounded)")
	chaosFile := fs.String("chaos", "", "chaos mode: arm this fault-schedule file against the listener and journal (testing only)")
	chaosLog := fs.String("chaos-log", "", "chaos mode: write the fault log here on shutdown (needs -chaos)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := sailor.ServiceConfig{
		Workers:         *workers,
		MaxConcurrent:   *maxConcurrent,
		SystemCacheSize: *cache,
		Seed:            *seed,
		MaxQueued:       *maxQueue,
	}

	var inj *chaos.Injector
	var sched *chaos.Schedule
	if *chaosFile != "" {
		doc, err := os.ReadFile(*chaosFile)
		if err != nil {
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		if sched, err = chaos.Unmarshal(doc); err != nil {
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		if inj, err = chaos.NewInjector(sched); err != nil {
			return nil, fmt.Errorf("-chaos: %w", err)
		}
	} else if *chaosLog != "" {
		return nil, fmt.Errorf("-chaos-log needs -chaos")
	}
	if *fleetQuota != "" {
		pool, _, err := sailor.ParseQuota(*fleetQuota)
		if err != nil {
			return nil, fmt.Errorf("-fleet: %w", err)
		}
		cfg.Fleet = sailor.NewLedger(pool)
		cfg.Fleet.SetJobCap(*fleetCap)
	}

	var store *persist.Store
	var recovered *persist.Recovered
	if *dataDir != "" {
		pcfg := persist.Config{Fsync: persist.FsyncPolicy(*fsync)}
		if inj != nil {
			pcfg.WrapJournal = inj.WrapJournal
		}
		var err error
		store, recovered, err = persist.Open(*dataDir, pcfg)
		if err != nil {
			return nil, fmt.Errorf("-data-dir: %w", err)
		}
	} else if *fsync != "always" {
		return nil, fmt.Errorf("-fsync needs -data-dir")
	}

	svc := sailor.NewService(cfg)
	if recovered != nil {
		if err := svc.Restore(recovered); err != nil {
			store.Close()
			return nil, fmt.Errorf("-data-dir: %w", err)
		}
	}
	if store != nil {
		// The fresh snapshot captures the (possibly restored) boot state, so
		// the new journal always replays on top of exactly this state.
		if err := store.Rotate(svc.PersistState()); err != nil {
			store.Close()
			return nil, fmt.Errorf("-data-dir: %w", err)
		}
		svc.SetRecorder(&journalHealth{Store: store})
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	if inj != nil {
		lis = inj.WrapListener(lis)
	}
	srv := sailor.NewServer(lis, svc)
	go srv.Serve()
	fmt.Fprintf(out, "listening on %s (wire schema v%d, workers=%d, max-concurrent=%d, cache=%d)\n",
		srv.Addr(), sailor.WireVersion, *workers, *maxConcurrent, *cache)
	if cfg.Fleet != nil && recovered == nil {
		fmt.Fprintf(out, "fleet mode: %d GPUs shared, per-job cap %d\n",
			cfg.Fleet.Capacity().TotalGPUs(), cfg.Fleet.JobCap())
	}
	if store != nil {
		if recovered != nil {
			fmt.Fprintf(out, "recovered %s: snapshot gen %d + %d journal records (%d jobs, ledger v%d)\n",
				*dataDir, recovered.SnapshotGen, recovered.RecordsReplayed,
				len(recovered.State.Jobs), recovered.LedgerVersion)
			if recovered.TailBytesDropped > 0 {
				log.Printf("dropped %d torn journal tail bytes", recovered.TailBytesDropped)
			}
		} else {
			fmt.Fprintf(out, "durable: journaling to %s (fsync=%s)\n", *dataDir, *fsync)
		}
	}
	if inj != nil {
		fmt.Fprintf(out, "chaos: schedule %q armed (%d faults, seed %d)\n",
			sched.Name, len(sched.Faults), sched.Seed)
	}
	return &daemon{srv: srv, svc: svc, store: store, inj: inj, chaosLog: *chaosLog}, nil
}
