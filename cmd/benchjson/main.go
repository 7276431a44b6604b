// Command benchjson measures the repo's fleet workloads and writes a
// BENCH_<date>.json of ns/op, allocs/op and bytes/op, so successive PRs
// can track the performance trajectory without parsing `go test -bench`
// text output.
//
// Usage:
//
//	benchjson [-out path] [-reps n] [-parallel n]
//
// The default output path is BENCH_<today>.json in the working directory.
// Each workload is measured twice: once serial (-parallel 1) and once with
// the runpool fan-out (-parallel value, default GOMAXPROCS), so the JSON
// also records the fleet speedup on the machine that produced it.
//
// The fleet-1e3/1e4/1e5 rows measure one sharded co-simulation each at
// N=1,000/10,000/100,000 sessions (16-session contention cells, streaming
// sketch aggregation): a single timed run with no warm-up and no
// serial/parallel pair, because at N=1e5 one run is minutes of wall clock.
// -scale=false skips them for a quick trajectory check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/runpool"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// result is one measured workload.
type result struct {
	Name        string `json:"name"`
	Parallel    int    `json:"parallel"`
	Reps        int    `json:"reps"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
}

// doc is the emitted file.
type doc struct {
	Date       string   `json:"date"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Results    []result `json:"results"`
}

// workload is one named fleet run, parameterized by worker count.
type workload struct {
	name string
	fn   func(parallel int) error
}

// fleetWorkloads are the multi-session runners the PR-over-PR trajectory
// tracks.
func fleetWorkloads() []workload {
	return []workload{
		{"bandwidth-sweep", func(p int) error {
			_, err := experiments.BandwidthSweep(experiments.DefaultSweepKbps(), p)
			return err
		}},
		{"seed-sweep-5", func(p int) error {
			_, err := experiments.SeedSweep(5, p)
			return err
		}},
		{"compare-fig3", func(p int) error {
			_, err := experiments.Compare(experiments.Scenarios()[1], p)
			return err
		}},
		// One full shaping pipeline (scene model, per-type boundary DPs,
		// ladder search) plus the six cross-product sessions it feeds.
		{"ladder-cross", func(p int) error {
			_, _, err := experiments.LadderCross(p)
			return err
		}},
		{"cdn-cache-sweep", func(p int) error {
			content := media.DramaShow()
			pop := cdnsim.Population{Viewers: 60, VideoZipf: 1.2, AudioSpread: 3, Seed: 11}
			cdnsim.CacheSweep(content, pop, []int64{32 << 20, 128 << 20, 512 << 20}, p)
			return nil
		}},
		// The recorder-off/on pair exposes the flight recorder's overhead:
		// the off row must track the pre-recorder baseline (the recorder is
		// a nil pointer, every emit a no-op), the on row prices event
		// collection. Single-session, so worker count is irrelevant.
		{"session-recorder-off", func(int) error {
			_, err := core.Play(core.Spec{Profile: trace.Fig3VaryingAvg600(), Player: core.BestPractice})
			return err
		}},
		{"session-recorder-on", func(int) error {
			_, err := core.Play(core.Spec{
				Profile:  trace.Fig3VaryingAvg600(),
				Player:   core.BestPractice,
				Recorder: timeline.New(0, "bench"),
			})
			return err
		}},
	}
}

// fleetScaleWorkloads are the large sharded-fleet rows (fleet-1e3,
// fleet-1e4, fleet-1e5 for the default sizes): each runs one
// experiments.FleetAtScale co-simulation on the streaming sketch path.
// They are kept out of fleetWorkloads so the serial/parallel pairing and
// warm-up logic never multiplies their cost.
func fleetScaleWorkloads(ns []int) []workload {
	ws := make([]workload, 0, len(ns))
	for _, n := range ns {
		n := n
		ws = append(ws, workload{"fleet-" + scaleLabel(n), func(p int) error {
			_, err := experiments.FleetAtScale(n, p)
			return err
		}})
	}
	return ws
}

// transportWorkloads are the transport-pricing rows: one sharded fleet at
// N=1,000 per protocol, so BENCH_*.json prices the per-session connection
// bookkeeping (handshake events, keep-alive clocks, loss draws) against
// the transport-less fleet-1e3 row.
func transportWorkloads() []workload {
	ws := make([]workload, 0, 3)
	for _, proto := range []netsim.Protocol{netsim.H1, netsim.H2, netsim.H3} {
		proto := proto
		ws = append(ws, workload{"transport-" + proto.String(), func(p int) error {
			_, err := experiments.FleetAtScaleTransport(1000, p, proto)
			return err
		}})
	}
	return ws
}

// liveWorkloads are the live-fleet rows: one sharded fleet of latency-
// target sessions (LL-ABR trio mix, availability gating, catch-up
// controller) at N=1,000, so BENCH_*.json prices the live machinery
// against the VOD fleet-1e3 row.
func liveWorkloads() []workload {
	return []workload{{"live-1e3", func(p int) error {
		_, err := experiments.FleetAtScaleLive(1000, p)
		return err
	}}}
}

// scaleLabel renders powers of ten as "1e3"-style exponents and anything
// else as the plain decimal.
func scaleLabel(n int) string {
	e, m := 0, n
	for m >= 10 && m%10 == 0 {
		m /= 10
		e++
	}
	if m == 1 && e > 0 {
		return fmt.Sprintf("1e%d", e)
	}
	return fmt.Sprintf("%d", n)
}

// measure runs fn reps times and reports per-op wall time and allocation
// deltas. Not a sim package: wall clock here times real execution.
func measure(name string, parallel, reps int, fn func(parallel int) error) (result, error) {
	// One untimed warm-up fills the lazy caches (preset contents, combo
	// expansions) so the steady state is what gets recorded.
	if err := fn(parallel); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(parallel); err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return result{
		Name:        name,
		Parallel:    runpool.Workers(parallel),
		Reps:        reps,
		NsPerOp:     elapsed.Nanoseconds() / int64(reps),
		AllocsPerOp: (after.Mallocs - before.Mallocs) / uint64(reps),
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(reps),
	}, nil
}

// measureOnce times a single run of fn with no warm-up: the scale rows
// are too expensive for warm-up plus repetition, and a one-shot wall-clock
// figure is what the BENCH trajectory compares for them.
func measureOnce(name string, parallel int, fn func(parallel int) error) (result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := fn(parallel); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return result{
		Name:        name,
		Parallel:    runpool.Workers(parallel),
		Reps:        1,
		NsPerOp:     elapsed.Nanoseconds(),
		AllocsPerOp: after.Mallocs - before.Mallocs,
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
	}, nil
}

// run measures every workload serial and parallel, then each scale
// workload once at the requested parallelism, and writes the JSON doc.
func run(out string, date string, reps, parallel int, workloads, scale []workload) error {
	d := doc{Date: date, GoMaxProcs: runtime.GOMAXPROCS(0)}
	ps := []int{1}
	if runpool.Workers(parallel) > 1 {
		ps = append(ps, parallel) // on a single core the fan-out run would just duplicate serial
	}
	for _, w := range workloads {
		for _, p := range ps {
			r, err := measure(w.name, p, reps, w.fn)
			if err != nil {
				return err
			}
			d.Results = append(d.Results, r)
		}
	}
	for _, w := range scale {
		r, err := measureOnce(w.name, parallel, w.fn)
		if err != nil {
			return err
		}
		d.Results = append(d.Results, r)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	date := time.Now().Format("2006-01-02")
	out := flag.String("out", "", "output path (default BENCH_<date>.json)")
	reps := flag.Int("reps", 3, "repetitions per workload")
	parallel := flag.Int("parallel", 0, "fleet worker count for the parallel runs (0 = GOMAXPROCS)")
	withScale := flag.Bool("scale", true, "include the fleet-1e3/1e4/1e5 sharded-fleet rows (minutes of wall clock)")
	flag.Parse()
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}
	var scale []workload
	if *withScale {
		scale = append(fleetScaleWorkloads(experiments.DefaultFleetScaleNs()), transportWorkloads()...)
		scale = append(scale, liveWorkloads()...)
	}
	if err := run(path, date, *reps, *parallel, fleetWorkloads(), scale); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}
