package scheduler

import (
	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
)

// BudgetedEngine is the second strawman of Section 3.1: SRPT scheduling
// for original tasks, with a fixed budget of slots reserved exclusively
// for speculative copies. The reserved slots idle when no speculation is
// pending (the waste Figure 1b illustrates), and speculation stalls when
// simultaneous straggler bursts exceed the budget — the two failure modes
// Hopper's dynamic allocation removes.
type BudgetedEngine struct {
	*Base
	totalSlots int
	budget     int
	sorter     srptSorter
}

// NewBudgeted builds a budgeted-speculation SRPT engine; cfg.SpecBudget
// slots are fenced off for speculative copies.
func NewBudgeted(eng *simulator.Engine, exec *cluster.Executor, cfg Config) *BudgetedEngine {
	e := &BudgetedEngine{
		totalSlots: exec.Machines.TotalSlots(),
		budget:     cfg.SpecBudget,
	}
	e.Base = newBase(eng, exec, cfg)
	e.Base.dispatch = e.dispatch
	return e
}

// Name identifies the engine in experiment reports.
func (e *BudgetedEngine) Name() string { return "Budgeted-SRPT" }

func (e *BudgetedEngine) dispatch() {
	// With no fresh task or want anywhere neither pool has anything to
	// place: return before the sort.
	if e.demand == 0 {
		return
	}
	// One SRPT ordering serves the whole pass: placements never change
	// remaining-task counts (only completions do, and completions are
	// events, never synchronous with this loop), so the old per-placement
	// re-sort recomputed an identical permutation every iteration.
	order := e.sorter.load(e.active)
	for e.Exec.Machines.AnyFree() {
		placed := false

		// Speculation pool: only specUsage counts against the budget.
		if e.specUsage < e.budget {
			for _, st := range order {
				if st.Wants() == 0 {
					continue
				}
				if e.placeSpec(st) {
					placed = true
					break
				}
			}
		}
		// Original-task pool: the rest of the cluster.
		if e.Exec.Machines.AnyFree() && e.freshUsage < e.totalSlots-e.budget {
			for _, st := range order {
				if st.fresh == 0 {
					continue
				}
				if e.placeFresh(st) {
					placed = true
					break
				}
			}
		}
		if !placed {
			return
		}
	}
}
