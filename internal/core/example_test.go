package core_test

import (
	"fmt"

	"github.com/hopper-sim/hopper/internal/core"
)

// ExampleAllocate shows the two regimes of Pseudocode 1: under scarcity
// the smallest job gets its full virtual size and the rest flows down the
// order; with abundance every job gets its virtual size plus a surplus
// share proportional to it.
func ExampleAllocate() {
	jobs := []core.JobDemand{
		{ID: 1, Remaining: 60}, // V = 80 at beta 1.5
		{ID: 2, Remaining: 15}, // V = 20
	}

	// epsilon = 1: no fairness floor. Each result is its Allocator's buffer.
	constrained := (&core.Allocator{}).Allocate(jobs, 50, 1.5, 1, nil)
	abundant := (&core.Allocator{}).Allocate(jobs, 200, 1.5, 1, nil)

	fmt.Println("constrained (50 slots):", constrained)
	fmt.Println("abundant   (200 slots):", abundant)
	// Output:
	// constrained (50 slots): [30 20]
	// abundant   (200 slots): [160 40]
}

// ExampleVirtualSize shows the desired minimum allocation for a job with
// 30 remaining tasks under different straggler regimes.
func ExampleVirtualSize() {
	fmt.Printf("beta=2.0 (light tail):  %.0f\n", core.VirtualSize(30, 2.0, 1))
	fmt.Printf("beta=1.5:               %.0f\n", core.VirtualSize(30, 1.5, 1))
	fmt.Printf("beta=1.5, alpha=4 DAG:  %.0f\n", core.VirtualSize(30, 1.5, 4))
	// Output:
	// beta=2.0 (light tail):  30
	// beta=1.5:               40
	// beta=1.5, alpha=4 DAG:  80
}

// ExampleAllocateFair shows the epsilon floor protecting a large job that
// pure smallest-first allocation would starve.
func ExampleAllocateFair() {
	jobs := []core.JobDemand{
		{ID: 1, Remaining: 500},
		{ID: 2, Remaining: 10},
	}
	unfair := (&core.Allocator{}).Allocate(jobs, 40, 1.5, 1, nil)
	fair := (&core.Allocator{}).Allocate(jobs, 40, 1.5, 0.1, nil) // floor = 0.9*40/2 = 18

	fmt.Println("epsilon=1 (no floor):", unfair)
	fmt.Println("epsilon=0.1:         ", fair)
	// Output:
	// epsilon=1 (no floor): [26 14]
	// epsilon=0.1:          [22 18]
}
