package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module with one simulation file that
// violates simclock (the tree reuses the real module path so the default
// sim-package scoping applies).
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module demuxabr\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "internal", "netsim")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "clock.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const violatingSrc = `package netsim

import "time"

func now() time.Time { return time.Now() }
`

const cleanSrc = `package netsim

import "time"

func tick(d time.Duration) time.Duration { return d + time.Second }
`

// fixableSrc carries a globalrand finding with an attached rewrite: the
// wall-clock seed becomes the constant 1 and the time import goes away.
const fixableSrc = `package netsim

import (
	"math/rand"
	"time"
)

func rng() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
`

func TestRunFlagsViolation(t *testing.T) {
	dir := writeModule(t, violatingSrc)
	var out bytes.Buffer
	code, err := run(options{roots: []string{dir}}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "[simclock]") || !strings.Contains(out.String(), "time.Now") {
		t.Errorf("output missing simclock finding:\n%s", out.String())
	}
}

func TestRunCleanTree(t *testing.T) {
	dir := writeModule(t, cleanSrc)
	var out bytes.Buffer
	code, err := run(options{roots: []string{dir + string(filepath.Separator) + "..."}}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0; output:\n%s", code, out.String())
	}
}

func TestRunJSON(t *testing.T) {
	dir := writeModule(t, violatingSrc)
	var out bytes.Buffer
	code, err := run(options{roots: []string{dir}, jsonOut: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	var doc struct {
		Findings []jsonFinding `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(doc.Findings) != 1 {
		t.Fatalf("findings = %+v, want 1", doc.Findings)
	}
	f := doc.Findings[0]
	if f.Rule != "simclock" || f.Severity != "WARN" || f.Line != 5 || !strings.HasSuffix(f.File, "clock.go") {
		t.Errorf("finding = %+v", f)
	}
	if !strings.HasPrefix(f.File, "internal/") {
		t.Errorf("finding file = %q, want root-relative path", f.File)
	}
}

func TestRunMissingModule(t *testing.T) {
	if _, err := run(options{roots: []string{t.TempDir()}}, os.Stdout); err == nil {
		t.Error("directory without go.mod should error")
	}
}

// TestFixRewritesTree pins the -fix acceptance criterion end to end: the
// wall-clock seed is rewritten, the orphaned time import removed, the
// result is gofmt-clean, and a re-run passes.
func TestFixRewritesTree(t *testing.T) {
	dir := writeModule(t, fixableSrc)
	var out bytes.Buffer
	code, err := run(options{roots: []string{dir}, fix: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit after fix = %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "applied 1 fix(es)") {
		t.Errorf("missing fix report:\n%s", out.String())
	}
	fixed, err := os.ReadFile(filepath.Join(dir, "internal", "netsim", "clock.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(fixed)
	if !strings.Contains(got, "rand.NewSource(1)") {
		t.Errorf("seed not substituted:\n%s", got)
	}
	if strings.Contains(got, `"time"`) {
		t.Errorf("orphaned time import kept:\n%s", got)
	}
	var rerun bytes.Buffer
	code, err = run(options{roots: []string{dir}}, &rerun)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("re-run exit = %d, want 0:\n%s", code, rerun.String())
	}
}
