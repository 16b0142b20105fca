package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfcheckRuns is how many runs make one set of one workload; run i of
// every set uses seed default+i, so the sets see the same inputs.
const selfcheckRuns = 3

// exactOnSims are the end-to-end metrics a simulated workload must
// repeat to the last digit at a fixed seed: they are functions of the
// simulation's counters alone.
var exactOnSims = []string{"events_per_decision", "job_mean_ms", "job_p50_ms", "job_p90_ms"}

// runSelfcheck is the A/A test: it runs every workload in `sets`
// alternating sets of this same binary and fails if the medians of two
// sets differ by more than the metric's bound, or if an exact metric
// differs at all. host.slice_spread is printed beside each workload so
// that a noisy box can be told from a noisy metric.
func runSelfcheck(sets int, seconds float64, smoke bool, out io.Writer) error {
	if sets < 2 {
		return fmt.Errorf("need at least 2 sets, got %d", sets)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("finding this binary: %w", err)
	}
	type key struct {
		workload, metric string
		set              int
	}
	vals := map[key][]float64{}
	spreads := map[string][]float64{}
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			for i := 0; i < selfcheckRuns; i++ {
				args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(w.DefaultSeed+int64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
				if smoke {
					args = append(args, "-smoke")
				}
				res, spread, err := runChild(self, args)
				if err != nil {
					return fmt.Errorf("%s set %d run %d: %w", w.Name, set+1, i+1, err)
				}
				for name, m := range res.Metrics {
					k := key{w.Name, name, set}
					vals[k] = append(vals[k], m.Value)
				}
				if spread > 0 {
					spreads[w.Name] = append(spreads[w.Name], spread)
				}
				fmt.Fprintf(out, "selfcheck: %s set %d run %d done\n", w.Name, set+1, i+1)
			}
		}
	}

	var failures []string
	for _, w := range workloads {
		fmt.Fprintf(out, "%s (host.slice_spread median %.3f)\n", w.Name, median(spreads[w.Name]))
		for _, m := range endToEnd {
			base := median(vals[key{w.Name, m.Name, 0}])
			line := fmt.Sprintf("  %-22s bound %4.0f%%  set medians:", m.Name, 100*m.Bound)
			worst := 0.0
			for set := 0; set < sets; set++ {
				v := median(vals[key{w.Name, m.Name, set}])
				line += fmt.Sprintf(" %.6g", v)
				worst = math.Max(worst, math.Abs(v-base)/base)
			}
			fmt.Fprintf(out, "%s  (max diff %.2f%%)\n", line, 100*worst)
			if worst > m.Bound {
				failures = append(failures, fmt.Sprintf("%s %s: set medians differ by %.2f%%, bound %.0f%%", w.Name, m.Name, 100*worst, 100*m.Bound))
			}
		}
		if w.Name == "live-openloop" {
			continue
		}
		for _, name := range exactOnSims {
			for set := 1; set < sets; set++ {
				a, b := vals[key{w.Name, name, 0}], vals[key{w.Name, name, set}]
				for i := range a {
					if a[i] != b[i] {
						failures = append(failures, fmt.Sprintf("%s %s: seed %d gave %v in set 1 and %v in set %d; it must repeat exactly",
							w.Name, name, w.DefaultSeed+int64(i), a[i], b[i], set+1))
					}
				}
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d metrics do not repeat:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintln(out, "selfcheck: every end-to-end metric repeats within its bound")
	return nil
}

// runChild runs one workload in a child process and parses its result
// line and the host.slice_spread line above it.
func runChild(self string, args []string) (*result, float64, error) {
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%v: %w: %s", args, err, strings.TrimSpace(stderr.String()))
	}
	var last string
	var spread float64
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 3 && f[0] == "host.slice_spread" {
			spread, _ = strconv.ParseFloat(f[1], 64) // a diagnostic; 0 when unreadable
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("%v: reading output: %w", args, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, 0, fmt.Errorf("%v: last output line is not a result: %w", args, err)
	}
	return &res, spread, nil
}
