package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/fleet"
)

// runTimed is a -trace 0 run: set up, check the cell driver against the
// program, then cycle timed passes through the input's units until the
// time budget is spent. The first cycle warms up and fixes peak RSS before
// the reference workload (reference.go) first runs, so that peak is the
// simulator's alone. From the second cycle on, the reference runs after
// every pass, and each cycle's time is divided by the mean of its
// reference times; sessions_per_s comes from the median of these ratios.
// The set-up is repeated after every cycle and divided by the reference
// time that follows it; setup_s is the median of these ratios.
func runTimed(w *workload, seed int64, budget time.Duration, log io.Writer) (result, error) {
	runtime.GC()
	start := time.Now()
	units, err := setup(w, seed)
	if err != nil {
		return result{}, err
	}
	setups := []float64{time.Since(start).Seconds()}
	crossErr := crossCheck(w.warmUnit(seed))
	if crossErr != nil {
		fmt.Fprintf(log, "bench: %s: cell driver disagrees with the program: %v\n", w.name, crossErr)
	}

	var rss float64
	var setupRatios []float64
	var refs []float64 // every reference time after a pass, in run order
	passes, err := timedPasses(units, budget, func(cycle, k int) error {
		if cycle > 0 {
			refs = append(refs, reference().Seconds())
		}
		if k < len(units)-1 {
			return nil
		}
		if cycle == 0 {
			rss = peakRSSMB()
		}
		runtime.GC()
		start := time.Now()
		if _, err := setup(w, seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupRatios = append(setupRatios, setups[len(setups)-1]/reference().Seconds())
		return nil
	})
	if err != nil {
		return result{}, err
	}
	s := summarize(passes, log)
	var cycleSecs, cycleRatios []float64
	for c := 1; c < len(passes[0]); c++ {
		wall := 0.0
		for _, reps := range passes {
			wall += reps[c].wall.Seconds()
		}
		cycleSecs = append(cycleSecs, wall)
		cycleRatios = append(cycleRatios, wall/mean(refs[(c-1)*len(units):c*len(units)]))
	}
	ref := refNominal.Seconds()
	res := result{Correct: s.consistent && crossErr == nil && s.failed == 0, Attempted: s.attempted, Failed: s.failed}
	res.Metrics, err = fill(endToEnd, map[string]float64{
		"sessions_per_s":          float64(s.sessions) / (median(cycleRatios) * ref),
		"setup_s":                 median(setupRatios) * ref,
		"peak_rss_mb":             rss,
		"allocs_per_session":      s.allocs,
		"alloc_bytes_per_session": s.bytes,
	})
	fmt.Fprintf(log, "bench: workload=%s seed=%d units=%d sessions=%d cycles=%d setups=%d\n",
		w.name, seed, len(units), s.sessions, len(passes[0]), len(setups))
	fmt.Fprintf(log, "%ssessions_per_s=%v setup_s=%v ref_median_s=%v\n",
		measuredPrefix, float64(s.sessions)/median(cycleSecs), median(setups), median(refs))
	fmt.Fprintf(log, "fingerprint %s\n", s.fingerprint)
	return res, err
}

// timedPasses cycles through the units, one pass each per cycle, until
// another cycle would overrun the budget; every unit gets the same number
// of passes, at least two. A collection before each pass starts every
// pass from the same heap state. after, when non-nil, runs after the pass
// over unit k in cycle cycle (from 0), outside its timing but inside the
// budget.
func timedPasses(units []unit, budget time.Duration, after func(cycle, k int) error) ([][]passOut, error) {
	passes := make([][]passOut, len(units))
	start := time.Now()
	for cycle := 0; ; cycle++ {
		for k, u := range units {
			runtime.GC()
			passes[k] = append(passes[k], runPass(u))
			if after != nil {
				if err := after(cycle, k); err != nil {
					return nil, err
				}
			}
		}
		elapsed := time.Since(start)
		if cycle > 0 && elapsed+elapsed/time.Duration(cycle+1) > budget {
			return passes, nil
		}
	}
}

// summary reduces a run's passes (indexed by unit, then repeat).
type summary struct {
	sessions, attempted, failed int
	// allocs and bytes are per session, from each unit's median pass.
	allocs, bytes float64
	// fingerprint hashes the units' output fingerprints; consistent is
	// false when a unit's repeats disagreed.
	fingerprint string
	consistent  bool
	playMs      []float64
}

func summarize(passes [][]passOut, log io.Writer) summary {
	s := summary{consistent: true}
	h := sha256.New()
	for _, reps := range passes {
		var mallocs, bytes []float64
		for _, p := range reps {
			s.attempted += p.sessions
			s.failed += p.failed
			s.playMs = append(s.playMs, p.playMs...)
			if p.err != nil {
				fmt.Fprintf(log, "bench: %v\n", p.err)
			}
			if p.fingerprint != reps[0].fingerprint {
				s.consistent = false
				fmt.Fprintln(log, "bench: output changed between passes over one unit")
			}
			mallocs = append(mallocs, float64(p.mallocs))
			bytes = append(bytes, float64(p.allocBytes))
		}
		s.sessions += reps[0].sessions
		s.allocs += median(mallocs)
		s.bytes += median(bytes)
		h.Write([]byte(reps[0].fingerprint))
	}
	s.allocs /= float64(s.sessions)
	s.bytes /= float64(s.sessions)
	s.fingerprint = hex.EncodeToString(h.Sum(nil))
	return s
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// crossCheck runs one unit through the program and through the untraced
// cell driver and requires identical per-session metrics: the traced
// run's layer numbers are only worth reading if the driver they come from
// simulates what the program simulates.
func crossCheck(u unit) error {
	if u.fleet != nil {
		cfg := *u.fleet
		cfg.MaxRetained = 0 // the exact path keeps per-session rows
		want, err := fleet.Run(cfg)
		if err != nil {
			return err
		}
		got, err := driveCell(cfg, nil)
		if err != nil {
			return err
		}
		for i, s := range want.Sessions {
			if !reflect.DeepEqual(s.Metrics, got[i]) {
				return fmt.Errorf("session %d: driver %+v, fleet.Run %+v", i, got[i], s.Metrics)
			}
		}
		return nil
	}
	for i, spec := range u.solo {
		want, err := core.Play(spec)
		if err != nil {
			return err
		}
		got, err := driveSolo(spec, i, nil)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want.Metrics, got) {
			return fmt.Errorf("session %d (%s): driver %+v, core.Play %+v", i, spec.Player, got, want.Metrics)
		}
	}
	return nil
}

// driverUnits is how many single-cell fleets (fleet workloads) or traces
// (solo-sweep) one cell-driver pass of a traced run drives.
const driverUnits = 16

// drive runs the cell driver over units cells (cell c is unit c of the
// seed's input cut to one cell) or units traces, and returns the sessions
// simulated.
func drive(w *workload, seed int64, units int, t *tracer) (int, error) {
	size := cellSessions
	if w.fleet == nil {
		size = 1
	}
	n := 0
	for c := 0; c < units; c++ {
		if t != nil {
			t.lane = c
		}
		u := w.unit(seed, c, size)
		if u.fleet != nil {
			if _, err := driveCell(*u.fleet, t); err != nil {
				return 0, fmt.Errorf("cell %d: %w", c, err)
			}
			n += u.fleet.Sessions
			continue
		}
		for _, spec := range u.solo {
			if _, err := driveSolo(spec, n, t); err != nil {
				return 0, fmt.Errorf("session %d (%s): %w", n, spec.Player, err)
			}
			n++
		}
	}
	return n, nil
}

// runTraced is a -trace 1 run, separate from the timed runs. Its first
// half alternates untraced and traced cell-driver passes (spans,
// counters, and the tracing overhead); its second profiles timed passes
// of the program and folds the samples into per-layer CPU shares. Spans
// and the layer table are written to dir.
func runTraced(w *workload, seed int64, budget time.Duration, units int, dir string, log io.Writer) (result, error) {
	input, err := setup(w, seed)
	if err != nil {
		return result{}, err
	}
	layers := map[string]float64{}
	attempted := 0

	var plain, traced []float64
	var last *tracer
	start := time.Now()
	for i := 0; i < 4 || time.Since(start) < budget/2; i++ {
		var t *tracer
		if i%2 == 1 {
			t = newTracer()
		}
		runtime.GC()
		t0 := time.Now()
		n, err := drive(w, seed, units, t)
		if err != nil {
			return result{}, err
		}
		rate := float64(n) / time.Since(t0).Seconds()
		attempted += n
		if t == nil {
			plain = append(plain, rate)
		} else {
			traced, last = append(traced, rate), t
		}
	}
	for k, v := range last.layers() {
		layers[k] = v
	}
	layers["trace_overhead_frac"] = 1 - median(traced)/median(plain)

	var prof bytes.Buffer
	gc0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	passes, err := timedPasses(input, budget/2, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	gc1 := readRuntime()
	s := summarize(passes, log)
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for _, l := range cpuLayers {
		layers["cpu_share."+l] = 0
	}
	for l, share := range p.fold() {
		layers["cpu_share."+l] = share
	}
	layers["runtime.gc_cpu_frac"] = (gc1.gcCPU - gc0.gcCPU) / (gc1.totalCPU - gc0.totalCPU)
	layers["runtime.gc_cycles_per_1k_sessions"] = float64(gc1.cycles-gc0.cycles) * 1000 / float64(s.attempted)
	layers["core.play.ms_p50"] = percentile(s.playMs, 50)
	layers["core.play.ms_p99"] = percentile(s.playMs, 99)
	layers["core.play.samples"] = float64(len(s.playMs))

	res := result{Correct: s.consistent && s.failed == 0, Attempted: attempted + s.attempted, Failed: s.failed}
	if res.Metrics, err = fill(perLayer(), layers); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	spans := filepath.Join(dir, w.name+".trace.json")
	if err := last.writeChromeTrace(spans); err != nil {
		return result{}, err
	}
	table := filepath.Join(dir, w.name+".layers.txt")
	if err := writeLayerTable(table, w.name, seed, res.Metrics); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "bench: workload=%s seed=%d traced; spans %s, layer table %s\n", w.name, seed, spans, table)
	return res, nil
}

// runtimeCounters are the runtime/metrics samples a traced run diffs.
type runtimeCounters struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

// writeLayerTable writes the traced run's layer table: the CPU shares,
// largest first, then every per-layer metric.
func writeLayerTable(path, name string, seed int64, ms map[string]value) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "workload %s seed %d\n\nCPU share by layer (profile fold):\n", name, seed)
	const prefix = "cpu_share."
	var shares []string
	for k := range ms {
		if strings.HasPrefix(k, prefix) {
			shares = append(shares, k)
		}
	}
	sort.Slice(shares, func(i, j int) bool {
		a, b := ms[shares[i]].Value, ms[shares[j]].Value
		return a > b || (a >= b && shares[i] < shares[j])
	})
	for _, k := range shares {
		fmt.Fprintf(&b, "  %-28s %6.2f%%\n", k[len(prefix):], 100*ms[k].Value)
	}
	b.WriteString("\nPer-layer metrics:\n")
	printTable(&b, perLayer(), ms)
	return os.WriteFile(path, b.Bytes(), 0o644)
}
