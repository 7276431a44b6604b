package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// orchestration runs one child process per measurement, so every run
// starts from a fresh process (its own peak RSS, no warm state from the
// previous workload) exactly as a single-workload invocation does.
type orchestration struct {
	names   []string
	seed    int64
	seconds int
	trace   int
	out     string
	stdout  io.Writer
	stderr  io.Writer
}

// runRecord is one child run.
type runRecord struct {
	Side        string `json:"side,omitempty"` // A/B only: "base" or "head"
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Measured holds a timed run's unscaled times (see reference.go).
	Measured map[string]float64 `json:"measured,omitempty"`
	Result   result             `json:"result"`
}

// machine identifies the host a multi-run measurement was taken on.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// child runs one single-workload measurement with the given binary and
// returns its result line and output fingerprint.
func (o *orchestration) child(bin, name string, seed int64) (runRecord, error) {
	rec := runRecord{Workload: name, Seed: seed}
	cmd := exec.Command(bin, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace))
	cmd.Stderr = o.stderr
	out, err := cmd.Output()
	if err != nil {
		return rec, fmt.Errorf("%s %s seed %d: %w", bin, name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if fp, ok := strings.CutPrefix(l, "fingerprint "); ok {
			rec.Fingerprint = fp
		}
		if kvs, ok := strings.CutPrefix(l, measuredPrefix); ok {
			rec.Measured = map[string]float64{}
			for _, kv := range strings.Fields(kvs) {
				k, v, _ := strings.Cut(kv, "=")
				if x, err := strconv.ParseFloat(v, 64); err == nil {
					rec.Measured[k] = x
				}
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return rec, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return rec, nil
}

// defs is the metric set of the runs being orchestrated.
func (o *orchestration) defs() []metricDef {
	if o.trace == 1 {
		return perLayer()
	}
	return endToEnd
}

// column collects one metric's values across records of one workload
// (and side).
func column(recs []runRecord, name, side, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if r.Workload == name && r.Side == side {
			xs = append(xs, r.Result.Metrics[metric].Value)
		}
	}
	return xs
}

// reps runs every selected workload reps times, rotating across workloads
// (w1 w2 … w1 w2 …) so slow drift of the machine hits every workload
// alike. Run r uses seed+r, the way the benchmark's acceptance spread is
// measured. It prints each metric's median, quartiles and spread (IQR as
// a share of the median) per workload.
func (o *orchestration) reps(reps int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(o.stderr, "bench:", err)
		return 1
	}
	var recs []runRecord
	status := 0
	for r := 0; r < reps; r++ {
		for _, name := range o.names {
			rec, err := o.child(self, name, o.seed+int64(r))
			if err != nil {
				fmt.Fprintln(o.stderr, "bench:", err)
				return 1
			}
			if !rec.Result.Correct || rec.Result.Failed > 0 {
				status = 1
			}
			fmt.Fprintf(o.stderr, "bench: rep %d %s seed %d done (correct=%v)\n", r, name, rec.Seed, rec.Result.Correct)
			recs = append(recs, rec)
		}
	}
	m := thisMachine()
	fmt.Fprintf(o.stdout, "machine: %s, nproc %d, GOMAXPROCS %d, %s; %d reps of %d s\n",
		m.CPU, m.NProc, m.GOMAXPROCS, m.Go, reps, o.seconds)
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		Q1       float64 `json:"q1"`
		Median   float64 `json:"median"`
		Q3       float64 `json:"q3"`
		Spread   float64 `json:"spread"`
		Bound    float64 `json:"bound,omitempty"`
	}
	var rows []row
	tw := tabwriter.NewWriter(o.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound")
	for _, name := range o.names {
		for _, d := range o.defs() {
			q1, med, q3 := quartiles(column(recs, name, "", d.Name))
			rw := row{name, d.Name, d.Unit, q1, med, q3, spread(q1, med, q3), d.Bound}
			rows = append(rows, rw)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.6g\t%.2f%%\t%s\n",
				name, d.Name, med, d.Unit, q1, q3, 100*rw.Spread, boundText(d.Bound))
		}
	}
	tw.Flush()
	if err := o.write(map[string]any{"machine": m, "seconds": o.seconds, "runs": recs, "summary": rows}); err != nil {
		fmt.Fprintln(o.stderr, "bench:", err)
		return 1
	}
	return status
}

// spread is the interquartile distance as a share of the median.
func spread(q1, med, q3 float64) float64 {
	if !(math.Abs(med) > 0) { // zero or NaN
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func boundText(b float64) string {
	if b <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*b)
}

func (o *orchestration) write(doc any) error {
	if o.out == "" {
		return nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(data, '\n'), 0o644)
}

// ab measures the working tree (head) against a base revision on this
// machine. The base tree is exported with git archive, the current
// benchmark directory is copied over it, and both sides are built from
// their own trees, so both commits run identical benchmark code. Each pair
// runs both sides on one seed (seed+pair), alternating which goes first.
func (o *orchestration) ab(rev string, pairs int) int {
	head, err := os.Executable()
	if err != nil {
		fmt.Fprintln(o.stderr, "bench:", err)
		return 1
	}
	base, sha, err := buildBase(rev, o.stderr)
	if err != nil {
		fmt.Fprintln(o.stderr, "bench:", err)
		return 1
	}
	var recs []runRecord
	for p := 0; p < pairs; p++ {
		for _, name := range o.names {
			sides := []struct{ side, bin string }{{"base", base}, {"head", head}}
			if p%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				rec, err := o.child(s.bin, name, o.seed+int64(p))
				if err != nil {
					fmt.Fprintln(o.stderr, "bench:", err)
					return 1
				}
				rec.Side = s.side
				fmt.Fprintf(o.stderr, "bench: pair %d %s %s done\n", p, name, s.side)
				recs = append(recs, rec)
			}
		}
	}

	m := thisMachine()
	fmt.Fprintf(o.stdout, "A/B: base %s (%s) vs working tree, %d pairs of %d s\n", rev, sha[:12], pairs, o.seconds)
	fmt.Fprintf(o.stdout, "machine: %s, nproc %d, GOMAXPROCS %d, %s\n", m.CPU, m.NProc, m.GOMAXPROCS, m.Go)
	identical := true
	for i := 0; i+1 < len(recs); i += 2 { // both sides of one workload and seed
		identical = identical && recs[i].Fingerprint == recs[i+1].Fingerprint
	}
	if identical {
		fmt.Fprintln(o.stdout, "simulated output: identical")
	} else {
		fmt.Fprintln(o.stdout, "simulated output: DIFFERENT")
	}

	type row struct {
		Workload string     `json:"workload"`
		Metric   string     `json:"metric"`
		Base     [3]float64 `json:"base_q1_median_q3"`
		Head     [3]float64 `json:"head_q1_median_q3"`
		WinFrac  float64    `json:"win_frac"`
		Verdict  string     `json:"verdict"`
	}
	var rows []row
	tw := tabwriter.NewWriter(o.stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\twins\tverdict")
	for _, name := range o.names {
		for _, d := range o.defs() {
			bv, hv := column(recs, name, "base", d.Name), column(recs, name, "head", d.Name)
			b1, bm, b3 := quartiles(bv)
			h1, hm, h3 := quartiles(hv)
			v, win := verdict(d, bv, hv)
			rows = append(rows, row{name, d.Name, [3]float64{b1, bm, b3}, [3]float64{h1, hm, h3}, win, v})
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.0f%%\t%s\n",
				name, d.Name, bm, b1, b3, hm, h1, h3, 100*win, v)
		}
	}
	tw.Flush()
	if err := o.write(map[string]any{
		"machine": m, "base": sha, "pairs": pairs, "seconds": o.seconds,
		"simulated_output_identical": identical, "runs": recs, "verdicts": rows,
	}); err != nil {
		fmt.Fprintln(o.stderr, "bench:", err)
		return 1
	}
	return 0
}

// verdict applies the benchmark's acceptance rule to one metric's paired
// runs (base[i] and head[i] share a seed). A gain needs at least ten
// pairs, the head winning nine tenths of them, and the medians differing
// by more than the base's own interquartile distance. Otherwise the head is "no worse"
// when its median is within the bound of the base's, and "unresolved"
// when the base's own spread is wider than the bound (unless every head
// run beats every base run).
func verdict(d metricDef, base, head []float64) (string, float64) {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range base {
		if i < len(head) && better(head[i], base[i]) {
			wins++
		}
	}
	win := float64(wins) / float64(max(len(base), 1))
	b1, bm, b3 := quartiles(base)
	hm := median(head)
	if len(base) >= 10 && win >= 0.9 && better(hm, bm) && math.Abs(hm-bm) > b3-b1 {
		return "improved", win
	}
	if d.Bound <= 0 {
		return "-", win
	}
	if spread(b1, bm, b3) > d.Bound {
		for _, h := range head {
			for _, b := range base {
				if !better(h, b) {
					return "unresolved", win
				}
			}
		}
		return "no worse within bound", win
	}
	worse := (hm - bm) / math.Abs(bm)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "regressed", win
	}
	return "no worse within bound", win
}

// buildBase exports rev into the build directory, overlays the current
// benchmark directory, builds it, and returns the binary and the
// revision's full hash.
func buildBase(rev string, log io.Writer) (bin, sha string, err error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", "", fmt.Errorf("resolve %s: %w", rev, err)
	}
	sha = strings.TrimSpace(string(out))
	dir, err := filepath.Abs(filepath.Join(buildDir(), "ab", sha[:12]))
	if err != nil {
		return "", "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	const export = `set -euo pipefail
git archive --format=tar "$1" | tar -x -C "$2"
rm -rf "$2/bench"
cp -R bench "$2/bench"`
	bin = dir + ".bin"
	for _, cmd := range []*exec.Cmd{
		exec.Command("bash", "-c", export, "export", sha, dir),
		exec.Command("go", "build", "-C", filepath.Join(dir, "bench"), "-o", bin, "."),
	} {
		cmd.Stdout, cmd.Stderr = log, log
		if err := cmd.Run(); err != nil {
			return "", "", fmt.Errorf("base %s: %s: %w", sha[:12], cmd.Args[0], err)
		}
	}
	return bin, sha, nil
}
