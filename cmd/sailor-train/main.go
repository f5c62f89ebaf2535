// Command sailor-train runs the elastic training framework over a dynamic
// availability trace (the paper's Figure 2 scenario): the controller plans,
// deploys, trains, and reconfigures kill-free as GPUs come and go.
//
// Usage:
//
//	sailor-train -model opt350m -seed 42
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/sailor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sailor-train: ")

	modelName := flag.String("model", "opt350m", "opt350m or gptneo27b")
	seed := flag.Int64("seed", 42, "availability trace seed")
	flag.Parse()

	var m sailor.Model
	switch strings.ToLower(*modelName) {
	case "opt350m", "opt-350m":
		m = sailor.OPT350M()
	case "gptneo27b", "gpt-neo-2.7b":
		m = sailor.GPTNeo27B()
	default:
		log.Fatalf("unknown model %q", *modelName)
	}

	tr, zoneA, zoneB := sailor.GCPA100Trace(*seed)
	fmt.Printf("replaying 8h A100 availability trace (zones %s, %s)\n", zoneA, zoneB)

	sys, err := sailor.New(m, []sailor.GPUType{sailor.A100})
	if err != nil {
		log.Fatal(err)
	}
	ctrl := sys.NewController()
	rep, err := ctrl.RunElastic(tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("iterations completed: %d\n", rep.IterationsDone)
	fmt.Printf("iterations lost to rollbacks: %d\n", rep.LostIterations)
	fmt.Printf("reconfigurations: %d\n", len(rep.Reconfigs))
	for i, t := range rep.Reconfigs {
		plan := "-"
		if i < len(rep.PlansUsed) {
			plan = fmt.Sprintf("%d GPUs", rep.PlansUsed[i].GPUCount())
		}
		fmt.Printf("  #%d: %.2fs total (plan %.2fs, cleanup %.2fs, bcast %.2fs, groups %.2fs) -> %s\n",
			i, t.Total(), t.Planning, t.Cleanup, t.Broadcast, t.GroupInit, plan)
	}
}
