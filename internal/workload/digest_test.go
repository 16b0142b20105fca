package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// traceDigest is a SHA-256 over everything Generate decides: the trace's
// totals, and per job its ID, name, arrival, and per phase its deps,
// duration, transfer work, task count and every task's replicas. Floats
// enter as their bits, so a last-bit change moves the digest.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	f(tr.TotalWork)
	f(tr.Horizon)
	f(tr.OfferedLoad)
	u(uint64(len(tr.Jobs)))
	for _, j := range tr.Jobs {
		u(uint64(j.ID))
		u(uint64(len(j.Name)))
		h.Write([]byte(j.Name))
		f(j.Arrival)
		u(uint64(len(j.Phases)))
		for _, p := range j.Phases {
			u(uint64(len(p.Deps)))
			for _, d := range p.Deps {
				u(uint64(d))
			}
			f(p.MeanTaskDuration)
			f(p.TransferWork)
			u(uint64(len(p.Tasks)))
			for _, t := range p.Tasks {
				u(uint64(len(t.Replicas)))
				for _, r := range t.Replicas {
					u(uint64(r))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCases pins the bytes of five generated traces: the three bench
// sims' traces (sim-decentral, sim-loadcache-hetero before its demand
// stamp, sim-central), one Bing and one Sparkified Facebook. A speed-up
// of Generate must leave every digest alone; a deliberate trace change
// updates the constants in the same diff and says why.
var digestCases = []struct {
	name string
	cfg  Config
	want string
}{
	{"sim-decentral", Config{Profile: Facebook(), NumJobs: 140, TargetUtilization: 0.7,
		TotalSlots: 4000, NumMachines: 1000, Seed: 7003}, "e36423def06d284d5fc84d5be3df408807e491b63e19b212c56a0e414ce7e640"},
	{"sim-loadcache-hetero", Config{Profile: Facebook(), NumJobs: 140, TargetUtilization: 0.7,
		TotalSlots: 7600, NumMachines: 2000, Seed: 7007}, "03463525cffe05c2a556acb6f0a1d094b4dc9817cbd45bcc71047db12c62e9a8"},
	{"sim-central", Config{Profile: Facebook(), NumJobs: 700, TargetUtilization: 0.9,
		TotalSlots: 16000, NumMachines: 4000, Seed: 7001}, "7754f3d55390af1cbc08295e34ee4fc1bda91be7581ff5c0585c51587b73ecb1"},
	{"bing", Config{Profile: Bing(), NumJobs: 300, TargetUtilization: 0.8,
		TotalSlots: 3200, NumMachines: 800, Seed: 3}, "0cd6cd37f1a569785adee770c5da1fc95e8e77cb26da6d43d7a216fc96c7886a"},
	{"facebook-spark", Config{Profile: Sparkify(Facebook()), NumJobs: 300, TargetUtilization: 0.6,
		TotalSlots: 3200, NumMachines: 800, Seed: 11}, "d0b9a54de57b750089accfdcb08b9abd5e3da3d964865bca0acfcc010560aa66"},
}

func TestGenerateDigest(t *testing.T) {
	for _, c := range digestCases {
		tr := Generate(c.cfg)
		if got := traceDigest(tr); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
		if err := replicasCapped(tr); err != "" {
			t.Errorf("%s: %s", c.name, err)
		}
	}
}

// replicasCapped reports a task whose replica list has room past its
// end: a phase's lists share one backing array, so an append there
// would write into the next task's list.
func replicasCapped(tr *Trace) string {
	for _, j := range tr.Jobs {
		for _, p := range j.Phases {
			for _, t := range p.Tasks {
				if cap(t.Replicas) != len(t.Replicas) {
					return fmt.Sprintf("job %d phase %d task %d: replicas len %d cap %d",
						j.ID, p.Index, t.Index, len(t.Replicas), cap(t.Replicas))
				}
			}
		}
	}
	return ""
}

// BenchmarkGenerate builds sim-central's trace: 700 jobs, 45,468 tasks.
func BenchmarkGenerate(b *testing.B) {
	cfg := digestCases[2].cfg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}
