// Command hopper-trace generates, inspects, and exports workload traces.
//
//	hopper-trace -profile facebook -jobs 5000 -util 0.6 -out trace.json
//	hopper-trace -in trace.json -stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/hopper-sim/hopper/internal/workload"
)

func main() {
	var (
		profileName = flag.String("profile", "facebook", "facebook | bing | facebook-spark | bing-spark")
		jobs        = flag.Int("jobs", 1000, "number of jobs")
		util        = flag.Float64("util", 0.6, "target utilization")
		slots       = flag.Int("slots", 3200, "cluster slots")
		machines    = flag.Int("machines", 200, "cluster machines")
		seed        = flag.Int64("seed", 1, "generator seed")
		out         = flag.String("out", "", "write trace JSON to this file")
		in          = flag.String("in", "", "read trace JSON from this file instead of generating")
		stats       = flag.Bool("stats", true, "print trace statistics")
	)
	flag.Parse()

	var tr *workload.Trace
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tr, err = workload.ReadTrace(f)
		if err != nil {
			log.Fatal(err)
		}
	default:
		prof, ok := workload.ProfileByName(*profileName)
		if !ok {
			log.Fatalf("unknown profile %q", *profileName)
		}
		tr = workload.Generate(workload.Config{
			Profile:           prof,
			NumJobs:           *jobs,
			TargetUtilization: *util,
			TotalSlots:        *slots,
			NumMachines:       *machines,
			Seed:              *seed,
		})
	}

	if *stats {
		printStats(tr, *slots)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := workload.WriteTrace(f, tr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d jobs to %s\n", len(tr.Jobs), *out)
	}
}

// printStats summarizes tr; slots sizes the offered load, which a trace
// read from a file does not carry.
func printStats(tr *workload.Trace, slots int) {
	bins := map[string]int{}
	dag := map[int]int{}
	totalTasks := 0
	for _, j := range tr.Jobs {
		bins[workload.SizeBin(j.TotalTasks())]++
		dag[len(j.Phases)]++
		totalTasks += j.TotalTasks()
	}
	fmt.Printf("jobs:         %d\n", len(tr.Jobs))
	fmt.Printf("tasks:        %d (mean %.1f per job)\n", totalTasks, float64(totalTasks)/float64(len(tr.Jobs)))
	fmt.Printf("total work:   %.0f slot-seconds\n", tr.TotalWork)
	fmt.Printf("horizon:      %.0f seconds\n", tr.Horizon)
	fmt.Printf("offered load: %.2f (fraction of %d slots)\n", tr.LoadOn(slots), slots)
	fmt.Println("size bins:")
	for _, b := range workload.SizeBins() {
		fmt.Printf("  %-8s %6d jobs\n", b, bins[b])
	}
	fmt.Println("DAG lengths:")
	for l := 1; l <= 8; l++ {
		if dag[l] > 0 {
			fmt.Printf("  %d phases: %5d jobs\n", l, dag[l])
		}
	}
}
