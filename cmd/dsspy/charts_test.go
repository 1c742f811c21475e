package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-enter the command: with DSSPY_CLI_MAIN=1 the test
// binary runs main on its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("DSSPY_CLI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs dsspy with args in a child process and returns its stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DSSPY_CLI_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("dsspy %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// TestChartsDrawCollectedEvents covers the chart flags on the default
// sharded-collector run, whose report folds the events instead of keeping
// them: the CLI must attach the collected trace before drawing.
func TestChartsDrawCollectedEvents(t *testing.T) {
	out := runCLI(t, "-app", "Algorithmia", "-chart")
	charts := strings.Split(out, "\nProfile of ")[1:]
	if len(charts) == 0 {
		t.Fatalf("-chart printed no profile chart:\n%s", out)
	}
	for _, c := range charts {
		if strings.Contains(c, "(empty profile)") || strings.Contains(c, "(0 events)") {
			t.Fatalf("-chart drew an empty profile:\nProfile of %s", c)
		}
	}

	path := filepath.Join(t.TempDir(), "report.html")
	runCLI(t, "-app", "Algorithmia", "-html", path)
	page, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(page), `<section class="flagged">`)[1:]
	if len(sections) == 0 {
		t.Fatal("-html report has no instance with a use case")
	}
	for i, sec := range sections {
		svg := strings.Index(sec, "<svg")
		if svg < 0 {
			t.Fatalf("flagged section %d has no <svg>", i)
		}
		if !strings.Contains(sec[svg:], "<circle") {
			t.Fatalf("flagged section %d draws an <svg> without event markers", i)
		}
	}
}
