package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/player"
)

var update = flag.Bool("update", false, "rewrite the golden paperfigs output in testdata/")

// TestEveryExperimentRuns runs every experiment family except fleetscale
// (one large fleet, sized by -fleet-n) and compares what it prints and the
// CSV timelines it writes byte for byte with the goldens in testdata/.
// Regenerate them with `go test ./cmd/paperfigs -run
// TestEveryExperimentRuns -update`.
func TestEveryExperimentRuns(t *testing.T) {
	dir := t.TempDir()
	stdout := captureStdout(t, func() {
		for _, r := range runs {
			if r.id == "fleetscale" {
				continue
			}
			fmt.Printf("\n===== %s =====\n", r.id)
			if err := r.fn(dir); err != nil {
				t.Errorf("%s: %v", r.id, err)
			}
		}
	})
	got := map[string][]byte{"stdout.txt": stdout}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csvs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(path)] = data
	}
	golden := filepath.Join("testdata", "golden")
	if *update {
		if err := os.RemoveAll(golden); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(golden, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(got) {
		t.Errorf("wrote %d outputs, testdata has %d goldens", len(got), len(entries))
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[e.Name()], want) {
			t.Errorf("%s differs from its golden%s", e.Name(), firstDiff(got[e.Name()], want))
		}
	}
}

// captureStdout runs fn with os.Stdout redirected to a temporary file and
// returns what fn wrote.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	os.Stdout = saved
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// firstDiff describes the first line where got and want part ways.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf(" at line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		}
	}
	return ""
}

func TestCSVTimelinesWritten(t *testing.T) {
	dir := t.TempDir()
	if err := fig4a(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 100 {
		t.Fatalf("fig4a.csv has %d lines, want a full timeline", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_s,video,audio") {
		t.Errorf("header = %q", lines[0])
	}
	// The Fig 4(a) signature visible in the CSV: estimate pinned at 500.
	if !strings.Contains(lines[len(lines)-1], ",500.0,") {
		t.Errorf("final row lacks the 500 Kbps estimate: %q", lines[len(lines)-1])
	}
}

// TestWriteTimelineReportsWriteErrors: a write that fails at the final
// flush is an error, not a silently truncated figure series.
func TestWriteTimelineReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	tl := []player.Sample{{At: time.Second}}
	if err := writeTimeline("/dev", "full", tl); err == nil {
		t.Error("writing to /dev/full returned nil, want an error")
	}
}
