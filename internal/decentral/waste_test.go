package decentral

import (
	"testing"

	"github.com/hopper-sim/hopper/internal/cluster"
	"github.com/hopper-sim/hopper/internal/simulator"
	"github.com/hopper-sim/hopper/internal/workload"
)

// TestNegotiationWasteGate keeps polling from creeping back unnoticed.
// Under the push contract a worker asks about a job only while a probe
// for it is outstanding, so most rounds place and a placed copy costs a
// handful of offers; when reservations were cooled and re-offered
// instead of dropped on NoDemand, these two runs read 5 % and 7 % of
// rounds placing and 57 and 29 offers per copy, against 45 % and 62 %,
// 3.6 and 2.3 now. The bounds sit between, more than a factor of two
// from either side, on a random-probing run and on a load-cached classed
// one.
func TestNegotiationWasteGate(t *testing.T) {
	classes := []cluster.MachineClass{
		{Name: "small", Count: 50, Speed: 0.5, Slots: 2, Cap: cluster.Resources{CPU: 2, Mem: 4}},
		{Name: "standard", Count: 30, Speed: 1, Slots: 4, Cap: cluster.Resources{CPU: 4, Mem: 8}},
		{Name: "big", Count: 20, Speed: 2, Slots: 8, Cap: cluster.Resources{CPU: 16, Mem: 32}},
	}
	cells := []struct {
		name     string
		machines *cluster.Machines
		cfg      Config
		demands  []cluster.Resources
	}{
		{"Hopper-D", cluster.NewMachines(100, 4), Config{Mode: ModeHopper}, []cluster.Resources{{}}},
		{"Hopper-LC-classed", cluster.NewMachinesClassed(classes), Config{Mode: ModeLoadCache, ReprobeInterval: 1}, heteroDemands},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			prof := workload.Facebook()
			prof.JobSizeCap = 120
			tr := workload.Generate(workload.Config{
				Profile: prof, NumJobs: 40, TargetUtilization: 0.7,
				TotalSlots: cell.machines.TotalSlots(), NumMachines: len(cell.machines.All), Seed: 5150,
			})
			stampDemands(tr.Jobs, cell.demands)
			eng := simulator.New(5151)
			exec := cluster.NewExecutor(eng, cell.machines, cluster.DefaultExecModel())
			sys := New(eng, exec, cell.cfg)
			runAll(t, eng, sys, tr.Jobs)

			placeFrac := float64(sys.RoundsPlaced) / float64(sys.RoundsStarted)
			offersPerCopy := float64(sys.Offers) / float64(exec.CopiesStarted)
			t.Logf("%d copies (%d speculative), %d rounds, %.3f placing, %.2f offers and %.2f messages per copy",
				exec.CopiesStarted, exec.SpeculativeCopies, sys.RoundsStarted, placeFrac,
				offersPerCopy, float64(sys.Messages)/float64(exec.CopiesStarted))
			if placeFrac < 0.15 {
				t.Errorf("only %.3f of negotiation rounds placed a copy, want >= 0.15: workers are asking schedulers that have nothing", placeFrac)
			}
			if offersPerCopy > 12 {
				t.Errorf("%.1f offers per placed copy, want <= 12", offersPerCopy)
			}
			if exec.SpeculativeCopies == 0 {
				t.Error("no speculative copy started: the run does not exercise pushed speculation")
			}
			if sys.SilentDemand != 0 || sys.OccupancyLeaks != 0 || sys.DoubleWakeups != 0 {
				t.Errorf("silent demand %d, occupancy leaks %d, double wakeups %d; want none",
					sys.SilentDemand, sys.OccupancyLeaks, sys.DoubleWakeups)
			}
			if got, want := sys.Messages, sys.Probes+2*sys.Offers+sys.Rollbacks; got != want {
				t.Errorf("message ledger open: %d messages, %d probes + 2*%d offers + %d rollbacks = %d",
					got, sys.Probes, sys.Offers, sys.Rollbacks, want)
			}
		})
	}
}
