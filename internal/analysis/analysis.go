// Package analysis is a stdlib-only static-analysis engine (go/parser +
// go/ast + go/types) with project-specific analyzers that guard the
// simulator invariants every regenerated figure depends on:
//
//   - simclock: no wall clock in simulation packages (replay determinism);
//   - globalrand: no global math/rand source and no time-seeded generators
//     in simulation packages (same-seed replay);
//   - maporder: no map-iteration-ordered output (report reproducibility);
//   - rangeleak: no map-range values escaping through assignment chains
//     into returns without a sort (the dataflow generalization of
//     maporder's unconditional-return rule);
//   - sharedcapture: no runpool job closures writing shared captured state
//     (serial-vs-parallel equivalence);
//   - recmut: no timeline recorder mutation from worker closures (export
//     determinism);
//   - floateq: no ==/!= between floats (silent metric drift);
//   - units: no arithmetic mixing bits/bytes or sec/ms identifiers without
//     an explicit conversion (the silent unit bugs measurement
//     reproductions die from).
//
// Packages are parsed and type-checked module-wide in import order over a
// shared TypeGraph, so analyzers can resolve identities across package
// boundaries (is this a *timeline.Recorder? does this call land in
// runpool?) rather than guessing from single ASTs.
//
// Findings mirror the Severity/Rule/Finding shape of
// internal/manifest/lint and render as "file:line: [rule] message".
// A finding is suppressed by a rule-scoped directive comment on its line
// or the line above:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// The reason is mandatory: an unexplained suppression is itself a
// finding, and so is the legacy "all" wildcard — a suppression must name
// the exact rules it silences.
package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Severity grades a finding, mirroring internal/manifest/lint.
type Severity int

const (
	// Warning marks an invariant violation; the suite (and TestVetABR)
	// fails on any unsuppressed Warning.
	Warning Severity = iota
	// Info marks an observation worth reviewing.
	Info
)

// String names the severity.
func (s Severity) String() string {
	if s == Warning {
		return "WARN"
	}
	return "INFO"
}

// TextEdit is one mechanical source rewrite attached to a finding:
// replace the [Start, End) byte range of Filename with NewText
// (End == Start inserts). Offsets are resolved against the analyzed
// source, so appliers need no access to the engine's FileSet.
type TextEdit struct {
	Filename   string
	Start, End int
	NewText    string
}

// Edit is the unresolved form analyzers hand to ReportFixf, addressed by
// token positions; the engine resolves it to a TextEdit.
type Edit struct {
	Pos, End token.Pos
	NewText  string
}

// Finding is one analyzer result.
type Finding struct {
	// Pos locates the finding (filename + line are what the renderers use).
	Pos token.Position
	// Severity grades the finding.
	Severity Severity
	// Rule is the short stable analyzer name (e.g. "simclock").
	Rule string
	// Message explains the finding.
	Message string
	// Fixes, when non-empty, are mechanical rewrites (vetabr -fix) that
	// make the finding go away without changing observable behaviour
	// beyond restoring determinism.
	Fixes []TextEdit
}

// String renders "file:line: [rule] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the rule identifier used in findings and suppressions.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass hands one package to an analyzer.
type Pass struct {
	// Fset positions every node of Files.
	Fset *token.FileSet
	// Files are the package's parsed (non-test) files.
	Files []*ast.File
	// Path is the package import path (e.g. "demuxabr/internal/netsim").
	Path string
	// Pkg is the type-checked package (may be incomplete on type errors).
	Pkg *types.Package
	// Info carries expression types and identifier uses. Analyzers must
	// tolerate missing entries: type checking is best-effort so the suite
	// still runs when an import cannot be resolved.
	Info *types.Info
	// Graph is the cross-package type graph: every module package checked
	// before (and including) this one, for identity queries across
	// package boundaries.
	Graph *TypeGraph

	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos under the running analyzer's name.
func (p *Pass) Reportf(pos token.Pos, sev Severity, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Severity: sev,
		Rule:     p.rule,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFixf records a finding carrying mechanical rewrites for -fix.
func (p *Pass) ReportFixf(pos token.Pos, sev Severity, fixes []Edit, format string, args ...any) {
	resolved := make([]TextEdit, 0, len(fixes))
	for _, e := range fixes {
		start := p.Fset.Position(e.Pos)
		stop := p.Fset.Position(e.End)
		resolved = append(resolved, TextEdit{
			Filename: start.Filename,
			Start:    start.Offset,
			End:      stop.Offset,
			NewText:  e.NewText,
		})
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Severity: sev,
		Rule:     p.rule,
		Message:  fmt.Sprintf(format, args...),
		Fixes:    resolved,
	})
}

// PkgName resolves a selector base identifier to the import path of the
// package it names, or "" if it does not name an imported package. It
// prefers type information and falls back to matching the file's import
// table, so it works even when type checking was incomplete.
func (p *Pass) PkgName(file *ast.File, id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return ""
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	return nil
}

// suppressions maps file -> line -> set of suppressed rules ("" = all).
type suppressions map[string]map[int]map[string]bool

// ignoreDirective is the suppression comment prefix.
const ignoreDirective = "//lint:ignore "

// collectSuppressions scans a file's comments for ignore directives. A
// directive without a reason is reported as a bad-suppression warning so
// silent blanket ignores cannot accumulate.
func collectSuppressions(fset *token.FileSet, file *ast.File, sup suppressions, findings *[]Finding) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignoreDirective) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignoreDirective)
			rules, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			if strings.TrimSpace(reason) == "" {
				*findings = append(*findings, Finding{
					Pos:      pos,
					Severity: Warning,
					Rule:     "bad-suppression",
					Message:  "//lint:ignore directive needs a rule and a justifying reason",
				})
				continue
			}
			// Suppressions are rule-scoped: a directive must name the exact
			// rules it silences. The old "all" wildcard silenced rules that
			// did not exist yet, so a later analyzer could be muted by a
			// comment written before it was.
			if hasWildcard(rules) {
				*findings = append(*findings, Finding{
					Pos:      pos,
					Severity: Warning,
					Rule:     "bad-suppression",
					Message:  "//lint:ignore must name specific rules; the \"all\" wildcard is not accepted (it would silence analyzers added later)",
				})
				continue
			}
			byLine := sup[pos.Filename]
			if byLine == nil {
				byLine = map[int]map[string]bool{}
				sup[pos.Filename] = byLine
			}
			set := byLine[pos.Line]
			if set == nil {
				set = map[string]bool{}
				byLine[pos.Line] = set
			}
			for _, r := range strings.Split(rules, ",") {
				set[strings.TrimSpace(r)] = true
			}
		}
	}
}

// hasWildcard reports whether a comma-separated rule list contains the
// banned blanket wildcard.
func hasWildcard(rules string) bool {
	for _, r := range strings.Split(rules, ",") {
		if strings.TrimSpace(r) == "all" {
			return true
		}
	}
	return false
}

// suppressed reports whether a finding is covered by a directive naming
// its rule on its own line or the line directly above.
func (s suppressions) suppressed(f Finding) bool {
	byLine := s[f.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if set := byLine[line]; set != nil && set[f.Rule] {
			return true
		}
	}
	return false
}

// pkgSrc is one parsed package awaiting type check.
type pkgSrc struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string // module-internal imports only
}

// RunDir discovers, parses and type-checks every non-test package under
// root (the module directory) and runs the analyzers over each, returning
// unsuppressed findings sorted by position. Type checking is best-effort:
// unresolvable imports degrade type information but never abort the run.
func RunDir(root string, analyzers []*Analyzer) ([]Finding, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := parseTree(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(pkgs)
	if err != nil {
		return nil, err
	}
	return runOrder(fset, order, analyzers), nil
}

// RelFindings rewrites finding positions to slash-separated paths
// relative to root, so vetabr's output and CI logs read the same from any
// invocation directory. Paths outside root are left untouched.
func RelFindings(root string, findings []Finding) {
	for i := range findings {
		findings[i].Pos.Filename = relPath(root, findings[i].Pos.Filename)
	}
}

// relPath makes one path root-relative when it lies under root.
func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}

// runOrder type-checks packages in topological order over one shared type
// graph and applies the analyzers to each.
func runOrder(fset *token.FileSet, order []*pkgSrc, analyzers []*Analyzer) []Finding {
	graph := newTypeGraph(fset)
	checked := map[string]*types.Package{}
	imp := &moduleImporter{
		checked:  checked,
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var findings []Finding
	sup := suppressions{}
	for _, p := range order {
		pass := checkPackage(fset, p, imp)
		pass.Graph = graph
		checked[p.path] = pass.Pkg
		graph.add(p.path, pass.Pkg)
		for _, f := range pass.Files {
			collectSuppressions(fset, f, sup, &findings)
		}
		runAnalyzers(pass, analyzers, &findings)
	}
	return finish(findings, sup)
}

// RunSource type-checks a single synthetic package (filename -> source)
// and runs the analyzers — the entry point analyzer tests use.
func RunSource(pkgPath string, files map[string]string, analyzers []*Analyzer) ([]Finding, error) {
	return RunPackages(map[string]map[string]string{pkgPath: files}, analyzers)
}

// RunPackages type-checks a set of synthetic packages (import path ->
// filename -> source), resolving imports between them, and runs the
// analyzers over each — the entry point cross-package fixture tests use
// to mimic module packages such as runpool or timeline without touching
// the real tree.
func RunPackages(pkgs map[string]map[string]string, analyzers []*Analyzer) ([]Finding, error) {
	fset := token.NewFileSet()
	srcs := map[string]*pkgSrc{}
	var paths []string
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		files := pkgs[path]
		var names []string
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		p := &pkgSrc{path: path}
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, files[name], parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip != path {
					if _, ok := pkgs[ip]; ok {
						p.imports = append(p.imports, ip)
					}
				}
			}
		}
		srcs[path] = p
	}
	order, err := topoOrder(srcs)
	if err != nil {
		return nil, err
	}
	return runOrder(fset, order, analyzers), nil
}

// finish filters suppressed findings and orders the rest.
func finish(findings []Finding, sup suppressions) []Finding {
	out := findings[:0]
	for _, f := range findings {
		if !sup.suppressed(f) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// runAnalyzers applies each analyzer to one checked package.
func runAnalyzers(pass *Pass, analyzers []*Analyzer, findings *[]Finding) {
	pass.findings = findings
	for _, a := range analyzers {
		pass.rule = a.Name
		a.Run(pass)
	}
}

// checkPackage type-checks one parsed package, tolerating errors.
func checkPackage(fset *token.FileSet, p *pkgSrc, imp types.Importer) *Pass {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // best effort: keep checking past errors
	}
	name := p.path
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	pkg, _ := conf.Check(p.path, fset, p.files, info)
	if pkg == nil {
		pkg = types.NewPackage(p.path, name)
	}
	return &Pass{Fset: fset, Files: p.files, Path: p.path, Pkg: pkg, Info: info}
}

// moduleImporter serves already-checked module packages and falls back to
// the stdlib source importer for everything else.
type moduleImporter struct {
	checked  map[string]*types.Package
	fallback types.Importer
}

// Import resolves one import path.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.fallback.Import(path)
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// parseTree walks root and parses every directory holding non-test .go
// files into a pkgSrc keyed by import path.
func parseTree(fset *token.FileSet, root, modPath string) (map[string]*pkgSrc, error) {
	pkgs := map[string]*pkgSrc{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		p := pkgs[pkgPath]
		if p == nil {
			p = &pkgSrc{path: pkgPath, dir: dir}
			pkgs[pkgPath] = p
		}
		p.files = append(p.files, file)
		for _, imp := range file.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == pkgPath || !strings.HasPrefix(ip, modPath+"/") {
				continue
			}
			p.imports = append(p.imports, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// topoOrder sorts packages so every module-internal import is checked
// before its importer.
func topoOrder(pkgs map[string]*pkgSrc) ([]*pkgSrc, error) {
	var order []*pkgSrc
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := pkgs[path]
		if !ok {
			return nil
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, dep := range p.imports {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, p)
		return nil
	}
	var paths []string
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}
