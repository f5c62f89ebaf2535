// Command loadgen is the repository's benchmark: it builds
// ./cmd/sailor-serve, drives it as a subprocess over TCP through the public
// sailor.Dial client with four fixed, seeded, closed-loop workloads,
// validates every reply, and prints the end-to-end metrics a job controller
// sees plus a per-layer breakdown timed from outside the program. See
// ../README.md for what each workload and metric is for.
//
// Usage (from the repository root):
//
//	bash benchmarks/run.sh                       # all workloads, untraced + traced
//	bash benchmarks/run.sh -check-repeat -seed 2 # same seed twice; must agree
//	bash benchmarks/run.sh --workload warm-churn --seed 1 --seconds 12 --trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"} holding the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1) of that workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func init() {
	// Daemon children die with the OS thread that forked them (Pdeathsig);
	// main forks them all and its thread lives as long as the process.
	runtime.LockOSThread()
}

func main() {
	workloadName := flag.String("workload", "", "run this one workload and end with a JSON result line (default: all four, untraced and traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same op sequences")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed window the fixed op counts are sized for")
	traced := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	checkRepeat := flag.Bool("check-repeat", false, "run every workload twice with the same seed and fail unless the two runs agree")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Daemon children and temp dirs go on every exit path: return, failed
	// check, panic, or signal.
	exit := func(code int) {
		h.cleanup()
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			h.cleanup()
			panic(r)
		}
	}()
	if err := h.buildServe(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}

	b := &bench{h: h, seed: *seed, seconds: *seconds}
	ok := true
	switch {
	case *checkRepeat:
		ok, err = b.checkRepeat(os.Stdout)
	case *workloadName != "":
		wl, found := workloadByName(*workloadName)
		if !found {
			fmt.Fprintf(os.Stderr, "loadgen: unknown workload %q\n", *workloadName)
			exit(2)
		}
		var res result
		if res, err = b.single(os.Stdout, wl, *traced == 1); err == nil {
			ok = res.Correct
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	default:
		ok, err = b.all(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		exit(1)
	}
	if !ok {
		exit(1)
	}
	exit(0)
}
