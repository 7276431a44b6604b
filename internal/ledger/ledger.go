// Package ledger reads the ratchet ledger: the table in docs/PERFORMANCE.md
// that states, once, every bound the allocation, byte, size-class and
// work-count tests pin. It is the only code that knows the table's format.
//
// A ratchet test asks For for its rows and reads each bound with
// Pins.Bound, before it starts any subtest. The test fails if it asks for
// a row the ledger does not have, and also if the ledger has a row under
// its name that it never read, so no row can go stale. check.sh's
// allocation step takes the tests and packages it runs from List.
package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docPath is the document that holds the ledger, relative to the module
// root.
const docPath = "docs/PERFORMANCE.md"

// heading opens the ledger's section of docPath; its first table is the ledger.
const heading = "## Ratchet ledger"

// units are the units a bound may be stated in: heap allocations, bytes
// allocated, a malloc size class in bytes, and the solver's work counts
// (events fired, uplink advances, transfer updates and fills).
var units = []string{"allocs", "bytes", "size-class", "events", "advances", "updates", "fills"}

// Row is one pinned bound.
type Row struct {
	Package string // the test's package directory, relative to the module root
	Test    string // the top-level test function
	Row     string // the test's row or subtest the bound is for
	Unit    string // one of units
	Bound   float64
}

func (r Row) String() string {
	return fmt.Sprintf("%s %s [%s] %s", r.Package, r.Test, r.Row, r.Unit)
}

// Root returns the module root: the nearest directory at or above dir
// that holds a go.mod.
func Root(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("ledger: no go.mod at or above %s", dir)
		}
	}
}

// Read returns the ledger of the module rooted at root.
func Read(root string) ([]Row, error) {
	text, err := os.ReadFile(filepath.Join(root, docPath))
	if err != nil {
		return nil, err
	}
	return parse(text)
}

// parse reads the first table after heading: a header line, a delimiter
// line, then one row per line, each | Package | Test | Row | Unit | Bound |,
// with the package and test in backquotes. The table ends at the first
// line that does not start with '|'.
func parse(doc []byte) ([]Row, error) {
	_, section, ok := bytes.Cut(doc, []byte("\n"+heading+"\n"))
	if !ok {
		return nil, fmt.Errorf("ledger: %s has no %q section", docPath, heading)
	}
	lines := strings.Split(string(section), "\n")
	start := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "|") })
	if start < 0 {
		return nil, errors.New("ledger: the ledger section has no table")
	}
	var rows []Row
	seen := make(map[Row]bool)
	for i, line := range lines[start+2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		r, err := parseRow(line)
		if err != nil {
			return nil, fmt.Errorf("ledger: table row %d: %v", i+1, err)
		}
		key := r
		key.Bound = 0
		if seen[key] {
			return nil, fmt.Errorf("ledger: %v appears twice", r)
		}
		seen[key] = true
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, errors.New("ledger: the ledger table has no rows")
	}
	return rows, nil
}

func parseRow(line string) (Row, error) {
	cells := strings.Split(strings.TrimSpace(line), "|")
	if len(cells) != 7 || cells[0] != "" || cells[6] != "" {
		return Row{}, fmt.Errorf("%q: want five cells", line)
	}
	for i := range cells {
		cells[i] = strings.TrimSpace(cells[i])
	}
	var r Row
	var ok bool
	if r.Package, ok = quoted(cells[1]); !ok {
		return Row{}, fmt.Errorf("%q: the package is not in backquotes", line)
	}
	if r.Test, ok = quoted(cells[2]); !ok || !strings.HasPrefix(r.Test, "Test") {
		return Row{}, fmt.Errorf("%q: the test is not a backquoted Test function", line)
	}
	r.Row, r.Unit = cells[3], cells[4]
	if r.Row == "" {
		return Row{}, fmt.Errorf("%q: the row is empty", line)
	}
	if !slices.Contains(units, r.Unit) {
		return Row{}, fmt.Errorf("%q: unit %q is not one of %v", line, r.Unit, units)
	}
	b, err := strconv.ParseFloat(cells[5], 64)
	if err != nil || b < 0 {
		return Row{}, fmt.Errorf("%q: bound %q is not a non-negative number", line, cells[5])
	}
	r.Bound = b
	return r, nil
}

// quoted returns s without its enclosing backquotes.
func quoted(s string) (string, bool) {
	if len(s) < 3 || s[0] != '`' || s[len(s)-1] != '`' {
		return "", false
	}
	return s[1 : len(s)-1], true
}

// List returns the tests the ledger names and their packages, each sorted
// and without repeats.
func List(rows []Row) (tests, packages []string) {
	for _, r := range rows {
		tests = append(tests, r.Test)
		packages = append(packages, r.Package)
	}
	slices.Sort(tests)
	slices.Sort(packages)
	return slices.Compact(tests), slices.Compact(packages)
}

// Pins is one test's rows of the ledger.
type Pins struct {
	t    testing.TB
	rows map[[2]string]*pin // by row and unit
}

type pin struct {
	bound float64
	read  bool
}

// For returns the ledger rows of t, a top-level test, in the package
// under test (the working directory go test runs it in). When t ends, it
// fails t if one of them was never read.
func For(t testing.TB) *Pins {
	t.Helper()
	if strings.Contains(t.Name(), "/") {
		t.Fatalf("ledger: For(%s): read a test's rows in its top-level test, not in a subtest", t.Name())
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := Root(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := filepath.Rel(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Read(root)
	if err != nil {
		t.Fatal(err)
	}
	return pinsOf(t, filepath.ToSlash(pkg), all)
}

// pinsOf is For over the rows all, for t in package pkg.
func pinsOf(t testing.TB, pkg string, all []Row) *Pins {
	p := &Pins{t: t, rows: make(map[[2]string]*pin)}
	for _, r := range all {
		if r.Package == pkg && r.Test == t.Name() {
			p.rows[[2]string{r.Row, r.Unit}] = &pin{bound: r.Bound}
		}
	}
	t.Cleanup(func() {
		if t.Failed() || t.Skipped() {
			return
		}
		var stale []string
		for k, pin := range p.rows {
			if !pin.read {
				stale = append(stale, fmt.Sprintf("[%s] %s", k[0], k[1]))
			}
		}
		slices.Sort(stale)
		for _, s := range stale {
			t.Errorf("ledger: %s has a row %s for %s that the test never read: delete it, or read it", docPath, s, t.Name())
		}
	})
	return p
}

// Bound returns the bound the ledger pins for row in unit, and fails the
// test at once if the ledger has no such row.
func (p *Pins) Bound(row, unit string) float64 {
	p.t.Helper()
	pin, ok := p.rows[[2]string{row, unit}]
	if !ok {
		p.t.Fatalf("ledger: %s has no row [%s] %s for %s", docPath, row, unit, p.t.Name())
	}
	pin.read = true
	return pin.bound
}
