// Command bench is the repository's benchmark. It runs fixed workloads
// through the simulator serially on one machine, prints every end-to-end
// metric by name and unit, checks the simulator's outputs, and ends with
// one JSON result line.
//
// Usage (bench/run.sh builds the binary and passes its arguments on):
//
//	bench -workload <name> [-seed 17] [-seconds 20] [-trace 0|1]
//	bench [-workload all] [-reps n] [-out file]     rotating repetitions
//	bench -base <rev> [-pairs 10] [-out file]       same-machine A/B
//
// A single-workload run is one process measuring one workload: -trace 0
// times passes of the program and prints the end-to-end metrics; -trace 1
// is the separate traced run that prints the per-layer metrics and writes
// spans and a layer table under -trace-dir. The other modes start one
// child process per measurement and summarize. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir is where run.sh keeps its build outputs; traces and A/B trees
// go there too.
func buildDir() string {
	if d := os.Getenv("BENCH_BUILD_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 17, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measuring time of one run")
	traced := fs.Int("trace", 0, "1 runs the traced run (per-layer metrics) instead of the timed run")
	traceDir := fs.String("trace-dir", filepath.Join(buildDir(), "trace"), "where a traced run writes spans and layer tables")
	reps := fs.Int("reps", 1, "runs per workload, rotating across workloads; run r uses seed+r")
	out := fs.String("out", "", "write every run and the summary of a multi-run mode as JSON")
	base := fs.String("base", "", "git revision to A/B against on this machine")
	pairs := fs.Int("pairs", 10, "A/B pairs, alternating which side runs first")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *reps < 1 || *pairs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: -seconds, -reps and -pairs must be positive and -trace 0 or 1")
		return 2
	}
	names, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	o := orchestration{
		names: names, seed: *seed, seconds: *seconds, trace: *traced,
		out: *out, stdout: stdout, stderr: stderr,
	}
	switch {
	case *base != "":
		return o.ab(*base, *pairs)
	case len(names) > 1 || *reps > 1:
		return o.reps(*reps)
	}

	w, _ := workloadByName(names[0])
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = runTraced(w, *seed, budget, driverUnits, *traceDir, stdout)
	} else {
		res, err = runTimed(w, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer()
	}
	printTable(stdout, defs, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// selectWorkloads resolves -workload.
func selectWorkloads(name string) ([]string, error) {
	if name == "all" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return names, nil
	}
	if _, err := workloadByName(name); err != nil {
		return nil, err
	}
	return []string{name}, nil
}
