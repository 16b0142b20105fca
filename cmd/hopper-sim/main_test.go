package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the hopper-sim CLI: when
// re-executed with HOPPER_SIM_BE_CLI set, it runs main's body against
// the test process's own flags instead of the test framework's. The
// CLI tests below exec themselves this way, so flag parsing and exit
// codes are exercised exactly as a user's shell would.
func TestMain(m *testing.M) {
	if os.Getenv("HOPPER_SIM_BE_CLI") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as the CLI with the given args.
func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HOPPER_SIM_BE_CLI=1")
	out, err := cmd.Output()
	return string(out), err
}

// TestListIncludesScenarios checks -list names the paper's figures and
// the robustness scenarios alike, one driver per line, ID first.
func TestListIncludesScenarios(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatalf("hopper-sim -list: %v\n%s", err, out)
	}
	ids := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			ids[f[0]] = true
		}
	}
	for _, id := range []string{"fig6", "chaos", "churn", "hetero"} {
		if !ids[id] {
			t.Errorf("-list does not list %s:\n%s", id, out)
		}
	}
}
