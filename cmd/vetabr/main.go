// Command vetabr runs the project's static-analysis suite
// (internal/analysis) over the repository's own source, enforcing the
// simulator-determinism and unit-safety invariants every regenerated
// figure depends on: simclock, globalrand, maporder, rangeleak,
// sharedcapture, recmut, floateq, units.
//
// Usage:
//
//	vetabr [-json] [-fix] [dir ...]
//
// Each dir is a module root or package tree ("./..." suffixes are
// accepted and stripped; the walk always recurses). With no argument the
// current directory's module is analyzed.
//
// -fix applies the mechanical rewrites attached to findings (inserting
// the missing sort after a map range, substituting a constant seed for a
// wall-clock one) and re-analyzes.
//
// Exit status 1 when any unsuppressed warning fires, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"demuxabr/internal/analysis"
)

func main() {
	var opts options
	flag.BoolVar(&opts.jsonOut, "json", false, "emit findings as JSON")
	flag.BoolVar(&opts.fix, "fix", false, "apply mechanical fixes to the source tree, then re-analyze")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: vetabr [-json] [-fix] [dir ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	opts.roots = flag.Args()
	code, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetabr:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// options collects the command line.
type options struct {
	roots   []string
	jsonOut bool
	fix     bool
}

// jsonFinding is the machine-readable finding schema (-json), shared in
// shape with cmd/lintmanifest.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Severity string `json:"severity"`
	Rule     string `json:"rule"`
	Message  string `json:"message"`
}

// run analyzes each root and renders findings; it returns the exit code.
func run(opts options, out io.Writer) (int, error) {
	roots := opts.roots
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var all []analysis.Finding
	for _, root := range roots {
		root = strings.TrimSuffix(root, "...")
		root = strings.TrimSuffix(root, string(filepath.Separator))
		if root == "" {
			root = "."
		}
		findings, err := analysis.RunDir(root, analysis.DefaultAnalyzers())
		if err != nil {
			return 2, err
		}
		if opts.fix {
			n, files, err := applyFixes(findings)
			if err != nil {
				return 2, err
			}
			if n > 0 {
				fmt.Fprintf(out, "vetabr: applied %d fix(es) across %d file(s) under %s\n", n, files, root)
				if findings, err = analysis.RunDir(root, analysis.DefaultAnalyzers()); err != nil {
					return 2, err
				}
			}
		}
		analysis.RelFindings(root, findings)
		all = append(all, findings...)
	}
	warnings := 0
	for _, f := range all {
		if f.Severity == analysis.Warning {
			warnings++
		}
	}

	if opts.jsonOut {
		doc := struct {
			Findings []jsonFinding `json:"findings"`
		}{Findings: []jsonFinding{}}
		for _, f := range all {
			doc.Findings = append(doc.Findings, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Severity: f.Severity.String(),
				Rule:     f.Rule,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return 2, err
		}
	} else {
		for _, f := range all {
			fmt.Fprintln(out, f)
		}
		if len(all) == 0 {
			fmt.Fprintln(out, "vetabr: ok")
		}
	}
	if warnings > 0 {
		return 1, nil
	}
	return 0, nil
}

// applyFixes loads every file a finding's fixes touch, splices the edits
// in, and writes the results back preserving file modes. It returns the
// number of findings fixed and files rewritten.
func applyFixes(findings []analysis.Finding) (fixed, files int, err error) {
	src := map[string][]byte{}
	for _, f := range findings {
		for _, e := range f.Fixes {
			if _, ok := src[e.Filename]; ok {
				continue
			}
			data, err := os.ReadFile(e.Filename)
			if err != nil {
				return 0, 0, err
			}
			src[e.Filename] = data
		}
	}
	out, fixed, err := analysis.ApplyFixes(findings, src)
	if err != nil {
		return 0, 0, err
	}
	for name, data := range out {
		mode := os.FileMode(0o644)
		if st, err := os.Stat(name); err == nil {
			mode = st.Mode().Perm()
		}
		if err := os.WriteFile(name, data, mode); err != nil {
			return 0, 0, err
		}
	}
	return fixed, len(out), nil
}
