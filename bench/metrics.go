package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one named benchmark metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees, printed by every
// timed run (-trace 0) for every workload. The simulator is a batch
// system, so throughput at a stated input size is the headline number.
// Each bound is at least three times the largest spread across seeds
// measured on a shared 2-vCPU host (README.md), except setup_s's: its
// set-ups take tens of milliseconds, so it is the noisiest and gets the
// largest bound. Allocations repeat exactly per input and vary only with
// the seed.
var endToEnd = []metricDef{
	{"sessions_per_s", "sessions/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"allocs_per_session", "count", "lower", 0.02},
	{"alloc_bytes_per_session", "bytes", "lower", 0.02},
}

// abrPackages are the ABR model packages whose decision latency the traced
// run reports, one pair of percentiles each.
var abrPackages = []string{"jointabr", "lowlat", "dashjs", "exoplayer", "shaka"}

// cpuLayers are the profile-fold layers always reported by a traced run
// (zero when a workload never enters them). A layer the fold finds outside
// this list is reported under its own name as well, so shares always sum
// to one.
var cpuLayers = []string{
	"netsim.engine", "netsim.solver", "netsim.transport",
	"abr", "abr.jointabr", "abr.lowlat", "abr.dashjs", "abr.exoplayer", "abr.shaka", "abr.estimator",
	"manifest", "player", "core", "fleet", "cdnsim", "qoe", "stats", "faults",
	"media", "trace", "timeline", "runpool", "report",
	"runtime.gc", "runtime.alloc", "other",
}

// perLayer lists every metric a traced run (-trace 1) prints.
func perLayer() []metricDef {
	defs := []metricDef{
		{"netsim.engine.events_per_session", "count", "lower", 0},
		{"netsim.engine.pending_peak", "count", "lower", 0},
		{"netsim_player.self_us_per_session", "us", "lower", 0},
		{"netsim.transport.handshakes_per_session", "count", "lower", 0},
		{"netsim.transport.hs_wait_sim_s", "s", "lower", 0},
		{"netsim.transport.hol_wait_sim_s", "s", "lower", 0},
		{"abr.decide.calls_per_session", "count", "lower", 0},
		{"abr.observe.calls_per_session", "count", "lower", 0},
		{"abr.observe.us_per_session", "us", "lower", 0},
	}
	for _, p := range abrPackages {
		defs = append(defs,
			metricDef{"abr." + p + ".decide_us_p50", "us", "lower", 0},
			metricDef{"abr." + p + ".decide_us_p99", "us", "lower", 0})
	}
	defs = append(defs, []metricDef{
		{"core.build_model.us_per_session", "us", "lower", 0},
		{"core.play.ms_p50", "ms", "lower", 0},
		{"core.play.ms_p99", "ms", "lower", 0},
		{"core.play.samples", "count", "higher", 0},
		{"player.timeline_samples_per_session", "count", "lower", 0},
		{"player.retries_per_session", "count", "lower", 0},
		{"player.abandons_per_session", "count", "lower", 0},
		{"player.useful_byte_frac", "fraction", "higher", 0},
		{"faults.failures_per_session", "count", "lower", 0},
		{"cdnsim.edge.requests_per_session", "count", "lower", 0},
		{"cdnsim.edge.hit_ratio", "fraction", "higher", 0},
		{"cdnsim.edge.us_per_session", "us", "lower", 0},
		{"qoe.compute.us_per_session", "us", "lower", 0},
		{"stats.accumulate.us_per_session", "us", "lower", 0},
		{"runtime.gc_cpu_frac", "fraction", "lower", 0},
		{"runtime.gc_cycles_per_1k_sessions", "count", "lower", 0},
		{"trace_overhead_frac", "fraction", "lower", 0},
	}...)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "fraction", "lower", 0})
	}
	return defs
}

// value is one reported metric, the shape of the result line's entries.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill builds a result's metric map from defs, failing when a definition
// has no measured value: a run reports every metric of its mode.
func fill(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(got))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name, v := range got {
		if _, ok := out[name]; !ok {
			out[name] = value{Value: v, Unit: "fraction"} // a cpu_share layer outside cpuLayers
		}
	}
	return out, nil
}

// printTable writes the metrics in definition order, then any extras.
func printTable(w io.Writer, defs []metricDef, ms map[string]value) {
	seen := map[string]bool{}
	for _, d := range defs {
		seen[d.Name] = true
		fmt.Fprintf(w, "%-42s %14.6g %s\n", d.Name, ms[d.Name].Value, d.Unit)
	}
	var extra []string
	for name := range ms {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-42s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(n=4), the spread
// rule BENCHMARK.json's bounds are checked with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := float64(n+1) * p // 1-based position
		j := min(max(int(math.Floor(pos)), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// median returns the middle of xs (the mean of the two middles for even
// counts); NaN when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the average of xs; NaN when empty.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs;
// 0 when xs is empty, the value a traced run reports for a layer the
// workload never enters.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
