package ledger

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestLedgerParses reads the repository's ledger: it must parse, with
// every row's unit known and no row stated twice.
func TestLedgerParses(t *testing.T) {
	rows := readLedger(t)
	tests, packages := List(rows)
	t.Logf("%d rows, %d tests in %d packages", len(rows), len(tests), len(packages))
}

// TestRowsNameTests: every row names a test function that its package's
// test files declare, so a renamed or deleted ratchet test cannot leave
// its rows behind unread.
func TestRowsNameTests(t *testing.T) {
	root, err := Root(".")
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]map[string]bool) // package → test functions
	for _, r := range readLedger(t) {
		tests, ok := declared[r.Package]
		if !ok {
			tests = testFuncs(t, filepath.Join(root, filepath.FromSlash(r.Package)))
			declared[r.Package] = tests
		}
		if !tests[r.Test] {
			t.Errorf("%v: %s declares no %s", r, r.Package, r.Test)
		}
	}
}

func readLedger(t *testing.T) []Row {
	t.Helper()
	root, err := Root(".")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Read(root)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// testFuncs returns the top-level functions declared in dir's test files,
// whatever their build constraints.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("%s has no test files", dir)
	}
	funcs := make(map[string]bool)
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
	}
	return funcs
}

const header = "# Doc\n\n" + heading + "\n\nText.\n\n" +
	"| Package | Test | Row | Unit | Bound |\n|---|---|---|---|---|\n"

// TestParseRejectsMalformedRows: a row the parser cannot read fails the
// whole ledger, rather than dropping out of it.
func TestParseRejectsMalformedRows(t *testing.T) {
	good := "| `internal/core` | `TestPlayAllocs` | dashjs | allocs | 5 |\n"
	rows, err := parse([]byte(header + good + "| `internal/core` | `TestPlayAllocs` | dashjs | bytes | 8580 |\n\nAfter.\n| not | a | row |\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{"internal/core", "TestPlayAllocs", "dashjs", "allocs", 5},
		{"internal/core", "TestPlayAllocs", "dashjs", "bytes", 8580},
	}
	if len(rows) != len(want) || rows[0] != want[0] || rows[1] != want[1] {
		t.Fatalf("parsed %v, want %v", rows, want)
	}
	for name, doc := range map[string]string{
		"no section":    strings.Replace(header, heading, "## Another", 1) + good,
		"no rows":       header,
		"four cells":    header + "| `internal/core` | `TestPlayAllocs` | allocs | 5 |\n",
		"bare package":  header + "| internal/core | `TestPlayAllocs` | dashjs | allocs | 5 |\n",
		"not a test":    header + "| `internal/core` | `playAllocs` | dashjs | allocs | 5 |\n",
		"empty row":     header + "| `internal/core` | `TestPlayAllocs` |  | allocs | 5 |\n",
		"unknown unit":  header + "| `internal/core` | `TestPlayAllocs` | dashjs | objects | 5 |\n",
		"bad bound":     header + "| `internal/core` | `TestPlayAllocs` | dashjs | bytes | 8,580 |\n",
		"negative":      header + "| `internal/core` | `TestPlayAllocs` | dashjs | allocs | -1 |\n",
		"stated twice":  header + good + strings.Replace(good, "5", "4", 1),
		"table missing": "# Doc\n\n" + heading + "\n\nText only.\n",
	} {
		if _, err := parse([]byte(doc)); err == nil {
			t.Errorf("%s: parsed without an error", name)
		}
	}
}

// fakeT records what the ledger does to a test.
type fakeT struct {
	testing.TB
	name     string
	failures []string
	cleanup  func()
}

// fatal stops a fakeT's test body, as FailNow stops a test's goroutine.
type fatal struct{}

func (f *fakeT) Name() string                   { return f.name }
func (f *fakeT) Helper()                        {}
func (f *fakeT) Failed() bool                   { return len(f.failures) > 0 }
func (f *fakeT) Skipped() bool                  { return false }
func (f *fakeT) Cleanup(fn func())              { f.cleanup = fn }
func (f *fakeT) Errorf(format string, a ...any) { f.failures = append(f.failures, format) }
func (f *fakeT) Fatalf(format string, a ...any) {
	f.failures = append(f.failures, format)
	panic(fatal{})
}

// run runs body as the test f with the ledger rows, then its cleanup, and
// returns how many times it failed.
func (f *fakeT) run(rows []Row, body func(*Pins)) int {
	func() {
		defer func() {
			if r := recover(); r != nil && r != (fatal{}) {
				panic(r)
			}
		}()
		body(pinsOf(f, "internal/x", rows))
	}()
	f.cleanup()
	return len(f.failures)
}

// TestPinsFailStaleAndMissingRows: a test fails when it reads a row the
// ledger does not have, and when it leaves a row under its name unread;
// rows of other tests and packages are not its own.
func TestPinsFailStaleAndMissingRows(t *testing.T) {
	rows := []Row{
		{"internal/x", "TestA", "warm", "allocs", 2},
		{"internal/x", "TestA", "warm", "bytes", 900},
		{"internal/x", "TestB", "warm", "allocs", 7},
		{"internal/y", "TestA", "cold", "allocs", 9},
	}
	readBoth := func(p *Pins) {
		if a, b := p.Bound("warm", "allocs"), p.Bound("warm", "bytes"); a != 2 || b != 900 {
			t.Errorf("bounds %v and %v, want 2 and 900", a, b)
		}
	}
	if n := (&fakeT{name: "TestA"}).run(rows, readBoth); n != 0 {
		t.Errorf("a test that reads each of its rows failed %d times", n)
	}
	if n := (&fakeT{name: "TestA"}).run(rows, func(p *Pins) { p.Bound("warm", "allocs") }); n != 1 {
		t.Errorf("a test that leaves one row unread failed %d times, want 1", n)
	}
	if n := (&fakeT{name: "TestA"}).run(rows, func(p *Pins) { readBoth(p); p.Bound("cold", "allocs") }); n != 1 {
		t.Errorf("a test that reads a missing row failed %d times, want 1", n)
	}
	if n := (&fakeT{name: "TestC"}).run(rows, func(*Pins) {}); n != 0 {
		t.Errorf("a test without rows failed %d times", n)
	}
}
