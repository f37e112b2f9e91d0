package disttrain

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRejectsBadArguments runs the real binaries on bad arguments —
// the holes that used to panic, print a table of zeros, or silently
// regenerate every experiment, and the names the model, freeze, policy,
// strategy and experiment lookups refuse: each must exit 1 with one
// line on stderr.
func TestCLIRejectsBadArguments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"disttrain-sim", "disttrain-plan", "disttrain-fleet", "disttrain-data", "disttrain-bench"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	for _, tc := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"disttrain-sim", []string{"-model", "7b"}, "disttrain-sim: unknown model \"7b\" (want 9b, 15b or 72b)\n"},
		{"disttrain-sim", []string{"-strategy", "nope"}, "disttrain-sim: unknown strategy \"nope\"\n"},
		{"disttrain-plan", []string{"-freeze", "nope"}, "disttrain-plan: unknown freeze setting \"nope\"\n"},
		{"disttrain-fleet", []string{"-jobs", "-1"}, "disttrain-fleet: -jobs must be at least 1\n"},
		{"disttrain-fleet", []string{"-policy", "nope"}, "disttrain-fleet: fleet: unknown policy \"nope\" (registered: [fair-share fifo priority])\n"},
		{"disttrain-data", []string{"-samples", "0"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-data", []string{"-samples", "-1"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-bench", []string{"fig13"}, "disttrain-bench: unexpected argument \"fig13\" (select an experiment with -experiment)\n"},
		{"disttrain-bench", []string{"-experiment", "nope"}, "disttrain-bench: nope: experiments: unknown experiment nope\n"},
	} {
		t.Run(tc.cmd+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			c := exec.Command(filepath.Join(bin, tc.cmd), tc.args...)
			c.Stdout, c.Stderr = &stdout, &stderr
			err := c.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("exit = %v, want status 1", err)
			}
			if stderr.String() != tc.want {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
		})
	}
}

// TestFleetCLIReportsCorruptPlanEntries plants one corrupt entry in a
// populated -plan-cache-dir: the next disttrain-fleet run reads it as a
// miss, re-searches, and says so on its durable plan cache line.
func TestFleetCLIReportsCorruptPlanEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "disttrain-fleet")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/disttrain-fleet").CombinedOutput(); err != nil {
		t.Fatalf("go build disttrain-fleet: %v\n%s", err, out)
	}
	dir := t.TempDir()
	run := func() string {
		t.Helper()
		out, err := exec.Command(bin, "-nodes", "2", "-jobs", "1", "-job-nodes", "2-2", "-job-iters", "1", "-plan-cache-dir", dir).CombinedOutput()
		if err != nil {
			t.Fatalf("disttrain-fleet: %v\n%s", err, out)
		}
		return string(out)
	}
	if out := run(); !strings.Contains(out, "0 corrupt entries skipped") {
		t.Fatalf("cold run does not report corrupt entries:\n%s", out)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.entry"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cold run left entries %v (%v), want one", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("not a plan"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := run(); !strings.Contains(out, "1 corrupt entries skipped") {
		t.Errorf("run over a corrupt entry does not report it:\n%s", out)
	}
}
