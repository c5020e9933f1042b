package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stdoutOf runs f with os.Stdout sent to a temporary file and returns
// what f printed.
func stdoutOf(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestReplayedTraceTitle: a table over a replayed trace is headed with
// the trace's task count and file name, not with the -tasks and -rate
// flags, which did not make the trace.
func TestReplayedTraceTitle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.json")
	stdoutOf(t, func() error { return saveTrace(path, 80, 0.5, 7, 0.3, 0.2) })
	table := stdoutOf(t, func() error {
		return run("reconfig-aware", "fcfs", 300, 0.8, 3, 1, 0.3, 0.2, 2, 2,
			"XC5VLX155T,XC5VLX330T", 0, false, true, path, nil, obsOpts{})
	})
	title, _, _ := strings.Cut(table, "\n")
	if want := "== DReAMSim: 80 tasks from wl.json, 1 seed(s), 2+2 nodes, queue=fcfs =="; title != want {
		t.Errorf("replayed trace's table is headed\n%q\nwant\n%q", title, want)
	}
}
