// Command sailor-bench regenerates the paper's tables and figures, and
// maintains the repo's planner perf trajectory.
//
// Usage:
//
//	sailor-bench -id all            # every experiment
//	sailor-bench -id fig7           # one experiment
//	sailor-bench -id fig9b -cap 60s # raise the slow-planner cap
//	sailor-bench -list
//	sailor-bench -json                       # run the planner perf suite,
//	                                         # write BENCH_planner.json
//	sailor-bench -json -bench-out out.json   # ... to a custom path
//	sailor-bench -json -count 5              # 5 suite runs, benchstat lines
//	                                         # per run (pipe to benchstat)
//	sailor-bench -validate BENCH_planner.json # schema-check a document
//	sailor-bench -compare new.json -baseline BENCH_planner.json
//	                                         # CI gate: fail on allocs/op
//	                                         # regressions > 10% or any
//	                                         # explored/cache_hits change
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sailor-bench: ")

	id := flag.String("id", "all", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiment ids")
	quick := flag.Bool("quick", false, "shrink cluster sizes for a fast pass")
	cap := flag.Duration("cap", 10*time.Second, "deadline for slow searchers (paper caps Metis at 300s)")
	workers := flag.Int("workers", runtime.NumCPU(), "Sailor planner search parallelism (goroutines)")
	jsonOut := flag.Bool("json", false, "run the planner perf suite and write -bench-out instead of experiments")
	benchOut := flag.String("bench-out", "BENCH_planner.json", "output path for the -json perf document")
	count := flag.Int("count", 1, "perf suite repetitions for -json; each run prints a benchstat-compatible block")
	validate := flag.String("validate", "", "schema-check a BENCH_planner.json document and exit")
	compare := flag.String("compare", "", "candidate BENCH_planner.json to gate against -baseline and exit")
	baseline := flag.String("baseline", "BENCH_planner.json", "baseline document for -compare")
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}
	if *count <= 0 {
		*count = 1
	}

	if *validate != "" {
		if err := validateBenchJSON(*validate); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: valid planner-bench document (schema v%d)\n", *validate, benchSchemaVersion)
		return
	}
	if *compare != "" {
		if err := compareBenchJSON(*compare, *baseline, 0.10, os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s vs %s: allocs/op within the gate, explored and cache_hits identical\n", *compare, *baseline)
		return
	}
	if *jsonOut {
		if err := writeBenchJSON(*benchOut, *workers, *count, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list {
		for _, e := range experiments.IDs() {
			fmt.Println(e)
		}
		return
	}
	opts := experiments.Opts{Quick: *quick, SlowPlannerCap: *cap, Workers: *workers}

	ids := experiments.IDs()
	if *id != "all" {
		if _, ok := experiments.Registry[*id]; !ok {
			log.Fatalf("unknown experiment %q; use -list", *id)
		}
		ids = []string{*id}
	}
	failed := 0
	for _, e := range ids {
		start := time.Now()
		tab, err := experiments.Registry[e](opts)
		if err != nil {
			log.Printf("%s: %v", e, err)
			failed++
			continue
		}
		fmt.Printf("%s\n(regenerated in %s, search workers=%d)\n\n", tab, time.Since(start).Round(time.Millisecond), *workers)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
