package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := Generate(genCfg(Facebook(), 100, 0.7, 21))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(tr.Jobs) {
		t.Fatalf("jobs %d, want %d", len(got.Jobs), len(tr.Jobs))
	}
	for i, j := range tr.Jobs {
		g := got.Jobs[i]
		if g.ID != j.ID || g.Name != j.Name || g.Arrival != j.Arrival {
			t.Fatalf("job %d header mismatch", i)
		}
		if g.TotalTasks() != j.TotalTasks() || len(g.Phases) != len(j.Phases) {
			t.Fatalf("job %d structure mismatch", i)
		}
		for pi, p := range j.Phases {
			gp := g.Phases[pi]
			if gp.MeanTaskDuration != p.MeanTaskDuration || gp.TransferWork != p.TransferWork {
				t.Fatalf("job %d phase %d params mismatch", i, pi)
			}
			if len(gp.Deps) != len(p.Deps) {
				t.Fatalf("job %d phase %d deps mismatch", i, pi)
			}
		}
		// Replica lists survive.
		for ti, task := range j.Phases[0].Tasks {
			if len(g.Phases[0].Tasks[ti].Replicas) != len(task.Replicas) {
				t.Fatalf("job %d task %d replicas lost", i, ti)
			}
		}
	}
}

// TestTraceRoundTripBitIdentical is the canonical-serialization
// property: for generated Facebook and Bing traces (DAG deps, transfer
// work, replica lists, recurring families included), write -> read ->
// write reproduces the byte stream exactly. Field-by-field spot checks
// (above) can miss a lossy field; byte equality of the re-serialization
// cannot.
func TestTraceRoundTripBitIdentical(t *testing.T) {
	profiles := []Profile{Facebook(), Bing(), Sparkify(Facebook())}
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			for _, seed := range []int64{3, 77, 20260729} {
				tr := Generate(genCfg(prof, 120, 0.7, seed))
				var first bytes.Buffer
				if err := WriteTrace(&first, tr); err != nil {
					t.Fatal(err)
				}
				read, err := ReadTrace(bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatalf("seed %d: read back: %v", seed, err)
				}
				var second bytes.Buffer
				if err := WriteTrace(&second, read); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("seed %d: re-serialization differs (lossy round trip)", seed)
				}
				// And the round trip is idempotent from the second
				// generation on (no drift on repeated load/save cycles).
				read2, err := ReadTrace(bytes.NewReader(second.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				var third bytes.Buffer
				if err := WriteTrace(&third, read2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(second.Bytes(), third.Bytes()) {
					t.Fatalf("seed %d: serialization not idempotent", seed)
				}
			}
		})
	}
}

func TestReadTraceRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":         `{`,
		"empty phases":     `{"jobs":[{"id":1,"arrival":0,"phases":[]}]}`,
		"no tasks":         `{"jobs":[{"id":1,"arrival":0,"phases":[{"mean_dur":1,"tasks":[]}]}]}`,
		"bad dep":          `{"jobs":[{"id":1,"arrival":0,"phases":[{"mean_dur":1,"tasks":[{}],"deps":[5]}]}]}`,
		"forward dep":      `{"jobs":[{"id":1,"arrival":0,"phases":[{"mean_dur":1,"tasks":[{}]},{"mean_dur":1,"tasks":[{}],"deps":[1]}]}]}`,
		"zero duration":    `{"jobs":[{"id":1,"arrival":0,"phases":[{"mean_dur":0,"tasks":[{}]}]}]}`,
		"negative start":   `{"jobs":[{"id":1,"arrival":-2,"phases":[{"mean_dur":1,"tasks":[{}]}]}]}`,
		"negative replica": `{"jobs":[{"id":1,"arrival":0,"phases":[{"mean_dur":1,"tasks":[{"replicas":[-1]}]}]}]}`,
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid trace", name)
		}
	}
}

func TestReadTraceValidMinimal(t *testing.T) {
	in := `{"jobs":[{"id":7,"name":"x","arrival":1.5,"phases":[
		{"mean_dur":2,"tasks":[{"replicas":[0,1]},{}]},
		{"mean_dur":1,"transfer_work":4,"deps":[0],"tasks":[{}]}
	]}]}`
	tr, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	j := tr.Jobs[0]
	if j.ID != 7 || j.Name != "x" || j.Arrival != 1.5 {
		t.Fatalf("header: %+v", j)
	}
	if j.TotalTasks() != 3 || len(j.Phases) != 2 {
		t.Fatal("structure wrong")
	}
	if j.Phases[1].TransferWork != 4 || j.Phases[1].Deps[0] != 0 {
		t.Fatal("phase 1 params wrong")
	}
}

// TestReadTraceLoadIsTheCallers: a file carries no slot count, so a read
// trace reports no offered load, and LoadOn with the generating slot
// count gives back exactly the generated one. Every other byte survives
// too: the read trace has the generated trace's digest.
func TestReadTraceLoadIsTheCallers(t *testing.T) {
	for _, c := range digestCases {
		tr := Generate(c.cfg)
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		read, err := ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if read.OfferedLoad != 0 {
			t.Errorf("%s: read trace claims offered load %v", c.name, read.OfferedLoad)
		}
		read.OfferedLoad = read.LoadOn(c.cfg.TotalSlots)
		if read.OfferedLoad != tr.OfferedLoad {
			t.Errorf("%s: LoadOn(%d) = %v, generated %v", c.name, c.cfg.TotalSlots, read.OfferedLoad, tr.OfferedLoad)
		}
		if got := traceDigest(read); got != c.want {
			t.Errorf("%s: read trace digest %s, want %s", c.name, got, c.want)
		}
		if err := replicasCapped(read); err != "" {
			t.Errorf("%s: read trace: %s", c.name, err)
		}
	}
}
