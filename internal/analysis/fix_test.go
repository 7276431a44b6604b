package analysis

import (
	"go/format"
	"strings"
	"testing"
)

// applyAndRecheck runs analyzers over one synthetic package, applies
// every attached fix, asserts the output is gofmt-clean, re-analyzes it,
// and returns the fixed source and the re-run findings.
func applyAndRecheck(t *testing.T, pkgPath, src string, analyzers []*Analyzer) (string, []Finding) {
	t.Helper()
	name := pkgPath + "/fix.go"
	findings, err := RunSource(pkgPath, map[string]string{name: src}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	out, applied, err := ApplyFixes(findings, map[string][]byte{name: []byte(src)})
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatalf("no fixes attached; findings = %v", findings)
	}
	fixed, ok := out[name]
	if !ok {
		t.Fatalf("fix did not rewrite %s; rewrote %v", name, out)
	}
	formatted, err := format.Source(fixed)
	if err != nil {
		t.Fatalf("fixed source does not parse: %v\n%s", err, fixed)
	}
	if string(formatted) != string(fixed) {
		t.Errorf("fixed source is not gofmt-clean:\n%s", fixed)
	}
	after, err := RunSource(pkgPath, map[string]string{name: string(fixed)}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return string(fixed), after
}

// TestFixMapOrderSortInsert: the maporder append-without-sort fix inserts
// slices.Sort after the loop (and the slices import) and the analyzer
// then passes.
func TestFixMapOrderSortInsert(t *testing.T) {
	src := `package fix

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	fixed, after := applyAndRecheck(t, "fix", src, []*Analyzer{NewMapOrder()})
	if !strings.Contains(fixed, "slices.Sort(out)") || !strings.Contains(fixed, `"slices"`) {
		t.Errorf("fix missing sort or import:\n%s", fixed)
	}
	if len(after) != 0 {
		t.Errorf("analyzer still fires after fix: %v\n%s", after, fixed)
	}
}

// TestFixMapOrderExistingImports: the slices import lands inside an
// existing grouped import declaration.
func TestFixMapOrderExistingImports(t *testing.T) {
	src := `package fix

import (
	"fmt"
)

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	fmt.Println(len(out))
	return out
}
`
	fixed, after := applyAndRecheck(t, "fix", src, []*Analyzer{NewMapOrder()})
	if !strings.Contains(fixed, "\"fmt\"\n\t\"slices\"") {
		t.Errorf("slices import not merged into the group:\n%s", fixed)
	}
	if len(after) != 0 {
		t.Errorf("analyzer still fires after fix: %v\n%s", after, fixed)
	}
}

// TestFixMapOrderStructSliceHasNoFix: struct slices need a human-chosen
// sort key, so the finding carries no rewrite.
func TestFixMapOrderStructSliceHasNoFix(t *testing.T) {
	src := `package fix

type pair struct{ k string }

func pairs(m map[string]int) []pair {
	var out []pair
	for k := range m {
		out = append(out, pair{k})
	}
	return out
}
`
	findings, err := RunSource("fix", map[string]string{"fix/fix.go": src}, []*Analyzer{NewMapOrder()})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want 1", findings)
	}
	if len(findings[0].Fixes) != 0 {
		t.Errorf("struct-slice finding should carry no fix: %+v", findings[0].Fixes)
	}
}

// TestFixGlobalRandSeedSubstitution: the wall-clock seed becomes the
// constant 1 and the orphaned time import disappears.
func TestFixGlobalRandSeedSubstitution(t *testing.T) {
	src := `package netsim

import (
	"math/rand"
	"time"
)

func rng() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano()))
}
`
	az := []*Analyzer{NewGlobalRand("demuxabr/internal/netsim")}
	fixed, after := applyAndRecheck(t, "demuxabr/internal/netsim", src, az)
	if !strings.Contains(fixed, "rand.NewSource(1)") {
		t.Errorf("seed not substituted:\n%s", fixed)
	}
	if strings.Contains(fixed, `"time"`) {
		t.Errorf("orphaned time import kept:\n%s", fixed)
	}
	if len(after) != 0 {
		t.Errorf("analyzer still fires after fix: %v\n%s", after, fixed)
	}
}

// TestApplyFixesRejectsOverlap: two rewrites of the same bytes refuse to
// guess.
func TestApplyFixesRejectsOverlap(t *testing.T) {
	src := "package fix\n"
	findings := []Finding{
		{Fixes: []TextEdit{{Filename: "fix.go", Start: 0, End: 7, NewText: "x"}}},
		{Fixes: []TextEdit{{Filename: "fix.go", Start: 5, End: 9, NewText: "y"}}},
	}
	if _, _, err := ApplyFixes(findings, map[string][]byte{"fix.go": []byte(src)}); err == nil {
		t.Error("overlapping fixes should error")
	}
}
