package disttrain

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// clis holds the command binaries the tests below run, built once per
// test binary into one directory that TestMain removes.
var clis struct {
	once sync.Once
	dir  string
	err  error
}

// cliNames lists the commands clis builds.
var cliNames = []string{"disttrain-sim", "disttrain-plan", "disttrain-fleet", "disttrain-data", "disttrain-bench", "disttrain-preprocd"}

func TestMain(m *testing.M) {
	code := m.Run()
	if clis.dir != "" {
		os.RemoveAll(clis.dir)
	}
	os.Exit(code)
}

// buildCLIs builds every command in cliNames with one go build, the
// first time a test asks, and returns the directory holding them.
func buildCLIs(t *testing.T) string {
	t.Helper()
	clis.once.Do(func() {
		if clis.dir, clis.err = os.MkdirTemp("", "disttrain-cli"); clis.err != nil {
			return
		}
		args := []string{"build", "-o", clis.dir}
		for _, cmd := range cliNames {
			args = append(args, "./cmd/"+cmd)
		}
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			clis.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if clis.err != nil {
		t.Fatal(clis.err)
	}
	return clis.dir
}

// TestCLIRejectsBadArguments runs the real binaries on bad arguments —
// the holes that used to panic, print a table of zeros, or silently
// regenerate every experiment, and the names the model, freeze, policy,
// strategy and experiment lookups refuse: each must exit 1 with one
// line on stderr and nothing on stdout (disttrain-preprocd refuses
// before it opens a listener).
func TestCLIRejectsBadArguments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command binaries")
	}
	bin := buildCLIs(t)
	for _, tc := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"disttrain-sim", []string{"-model", "7b"}, "disttrain-sim: unknown model \"7b\" (want 9b, 15b or 72b)\n"},
		{"disttrain-sim", []string{"-strategy", "nope"}, "disttrain-sim: unknown strategy \"nope\"\n"},
		{"disttrain-plan", []string{"-freeze", "nope"}, "disttrain-plan: unknown freeze setting \"nope\"\n"},
		{"disttrain-plan", []string{"-strategy", "nope", "-nodes", "2", "-batch", "16"}, "disttrain-plan: unknown strategy \"nope\"\n"},
		{"disttrain-fleet", []string{"-jobs", "-1"}, "disttrain-fleet: -jobs must be at least 1\n"},
		{"disttrain-fleet", []string{"-policy", "nope"}, "disttrain-fleet: fleet: unknown policy \"nope\" (registered: [fair-share fifo priority])\n"},
		{"disttrain-data", []string{"-samples", "0"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-data", []string{"-samples", "-1"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-bench", []string{"fig13"}, "disttrain-bench: unexpected argument \"fig13\" (select an experiment with -experiment)\n"},
		{"disttrain-bench", []string{"-experiment", "nope"}, "disttrain-bench: nope: experiments: unknown experiment nope\n"},
		{"disttrain-preprocd", []string{"-model", "7b"}, "disttrain-preprocd: unknown model \"7b\" (want 9b, 15b or 72b)\n"},
		{"disttrain-preprocd", []string{"-freeze", "nope"}, "disttrain-preprocd: unknown freeze setting \"nope\"\n"},
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

// TestFleetCLIReportsCorruptPlanEntries flips a bit inside the one
// record of a populated -plan-cache-dir's log: the next disttrain-fleet
// run reads it as a miss, re-searches, and says so on its durable plan
// cache line.
func TestFleetCLIReportsCorruptPlanEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command binaries")
	}
	bin := filepath.Join(buildCLIs(t), "disttrain-fleet")
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
	log := filepath.Join(dir, "entries.log")
	b, err := os.ReadFile(log)
	if err != nil || bytes.Count(b, []byte("disttrain-store/v2 ")) != 1 {
		t.Fatalf("cold run left a log of %d records (%v), want one", bytes.Count(b, []byte("disttrain-store/v2 ")), err)
	}
	b[len(b)/2] ^= 0x01 // a bit flip inside the plan
	if err := os.WriteFile(log, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if out := run(); !strings.Contains(out, "1 corrupt entries skipped") {
		t.Errorf("run over a corrupt entry does not report it:\n%s", out)
	}
}

// TestCLIWalkthroughs runs the README's walkthroughs end to end: the
// producer pool failing over, a failure survived from a checkpoint, the
// adaptive controller re-planning under a workload shift and switching
// to the new plan, a fleet losing and regaining a node, and a durable
// plan sweep run cold and then again over its cache directory. Each
// run must exit 0 and print the line its section promises.
func TestCLIWalkthroughs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command binaries, trains through four scenarios and plans a sweep twice")
	}
	bin := buildCLIs(t)
	// count returns the integer the first submatch of re captures in
	// out, or -1 when re does not match.
	count := func(re, out string) int {
		m := regexp.MustCompile(re).FindStringSubmatch(out)
		if m == nil {
			return -1
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	for _, tc := range []struct {
		name  string
		cmd   string
		args  []string
		check func(out string) bool
	}{
		{"producer pool", "disttrain-sim",
			[]string{"-nodes", "4", "-batch", "16", "-iters", "6", "-local-producers", "3",
				"-scenario", "producer-fail:iter=2,producer=1; producer-join:iter=4,producer=1"},
			func(out string) bool { return count(`(?m)^producer pool:.* failovers (\d+)`, out) >= 1 }},
		{"failure recovery", "disttrain-sim",
			[]string{"-nodes", "4", "-batch", "16", "-iters", "8", "-checkpoint-every", "2",
				"-scenario", "straggler:iters=2-4,rank=0,factor=3; failure:iter=6,downtime=20"},
			func(out string) bool { return strings.Contains(out, "1 failures survived") }},
		{"adaptive re-plan", "disttrain-sim",
			[]string{"-nodes", "4", "-batch", "32", "-iters", "14", "-adapt",
				"-scenario", "workload-shift:iters=2-13,factor=3"},
			func(out string) bool {
				return regexp.MustCompile(`(?m)-> re-plan$`).MatchString(out) &&
					count(`(?m) (\d+) plan switches$`, out) >= 1 &&
					regexp.MustCompile(`(?m)^replan before iter \d+ -> disttrain `).MatchString(out)
			}},
		{"fleet node churn", "disttrain-fleet",
			[]string{"-scenario", "node-fail:iter=2,node=0; node-join:iter=4,node=0"},
			func(out string) bool {
				rows := regexp.MustCompile(`(?m)^  \S+ +rounds \d+\.\.\d+ `).FindAllString(out, -1)
				return len(rows) > 0 && len(rows) == count(`(?m)^fleet: .* (\d+) tenants$`, out)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, tc.cmd), tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", tc.cmd, err, out)
			}
			if !tc.check(string(out)) {
				t.Errorf("%s %s: output lacks the promised line:\n%s", tc.cmd, strings.Join(tc.args, " "), out)
			}
		})
	}
	// The cold sweep searches its four distinct sizes, and its cache's
	// observer counts what their bounds pruned; the restart serves all
	// four from disk, so it searches and prunes nothing.
	t.Run("durable plan sweep", func(t *testing.T) {
		dir := t.TempDir()
		summary := regexp.MustCompile(`(?m)^plan cache: (\d+) searches, (\d+) warm hits, \d+ warm-seeded, (\d+) candidates pruned, 0 corrupt entries skipped$`)
		for _, want := range []struct {
			searches, warmHits string
			pruned             bool
		}{{"4", "0", true}, {"0", "4", false}} {
			out, err := exec.Command(filepath.Join(bin, "disttrain-plan"),
				"-model", "9b", "-batch", "128", "-sweep", "4,8,8,12,24", "-plan-cache-dir", dir).CombinedOutput()
			if err != nil {
				t.Fatalf("disttrain-plan: %v\n%s", err, out)
			}
			m := summary.FindStringSubmatch(string(out))
			if m == nil || m[1] != want.searches || m[2] != want.warmHits || (m[3] != "0") != want.pruned {
				t.Errorf("want %s searches, %s warm hits and pruning %v:\n%s", want.searches, want.warmHits, want.pruned, out)
			}
		}
	})
}

// readmeRuns returns the `go run ./cmd/<name> …` commands of the shell
// blocks in a README, one per command: continuation lines joined,
// quoted arguments and # comments dropped.
func readmeRuns(readme string) []string {
	quoted := regexp.MustCompile(`'[^']*'|"[^"]*"`)
	var runs []string
	inShell, cmd := false, ""
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "```") {
			inShell = line == "```sh" || line == "```bash"
			continue
		}
		if !inShell {
			continue
		}
		line = quoted.ReplaceAllString(line, "")
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if cmd == "" && !strings.HasPrefix(line, "go run ./cmd/") {
			continue
		}
		cmd += " " + strings.TrimSuffix(line, `\`)
		if !strings.HasSuffix(line, `\`) {
			runs = append(runs, strings.TrimSpace(cmd))
			cmd = ""
		}
	}
	return runs
}

// TestREADMEFlagsExist holds the README to the binaries it documents:
// every `go run ./cmd/<name> …` line in its shell blocks names only
// flags that the built command's -h usage lists.
func TestREADMEFlagsExist(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command binaries")
	}
	bin := buildCLIs(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	runs := readmeRuns(string(readme))
	if len(runs) == 0 {
		t.Fatal("README.md has no `go run ./cmd/...` line in a shell block")
	}
	usageFlag := regexp.MustCompile(`(?m)^  -([\w-]+)`)
	known := map[string]map[string]bool{}
	for _, run := range runs {
		fields := strings.Fields(run)
		name := strings.TrimPrefix(fields[2], "./cmd/")
		if known[name] == nil {
			// -h prints the usage and exits 0 (flag.ExitOnError).
			out, err := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h: %v (is it in cliNames?)\n%s", name, err, out)
			}
			known[name] = map[string]bool{}
			for _, m := range usageFlag.FindAllStringSubmatch(string(out), -1) {
				known[name][m[1]] = true
			}
		}
		for _, f := range fields[3:] {
			if !strings.HasPrefix(f, "-") {
				continue
			}
			opt, _, _ := strings.Cut(strings.TrimLeft(f, "-"), "=")
			if !known[name][opt] {
				t.Errorf("README runs %q: %s has no flag -%s", run, name, opt)
			}
		}
	}
	t.Logf("%d README commands checked", len(runs))
}
