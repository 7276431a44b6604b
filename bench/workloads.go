package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/qoe"
	"demuxabr/internal/report"
	"demuxabr/internal/stats"
	"demuxabr/internal/trace"
)

// cellSessions is every fleet workload's contention-cell size: 16 clients
// with 6 Mbps access links behind one 24 Mbps uplink, the 4x
// oversubscription of the repo's at-scale fleets.
const cellSessions = 16

// workload is one named input family. A run's input is unitsPerInput
// units; a unit is one timed call sequence into the program: one fleet.Run
// for the fleet workloads, one serial loop of core.Play calls for
// solo-sweep.
type workload struct {
	name string
	// unitSize is the fleet size of one unit, or for solo-sweep the number
	// of random-walk traces in one unit (each played by every soloVariants
	// entry). Sizes make a unit take about 0.2 s on a 2-vCPU host.
	unitSize int
	// fleet builds a unit's config for a seed; nil for solo-sweep.
	fleet func(seed int64, sessions int) fleet.Config
}

// unitsPerInput is how many distinct units one run's input holds. A run
// cycles through them until its time is spent.
const unitsPerInput = 8

// workloads are the benchmark's inputs, in run order. README.md and
// BENCHMARK.json record why each was chosen.
var workloads = []workload{
	{
		name:     "fleet-vod",
		unitSize: 64,
		fleet:    vodConfig,
	},
	{
		name:     "fleet-resilient",
		unitSize: 64,
		fleet:    resilientConfig,
	},
	{
		name:     "fleet-live",
		unitSize: 160,
		fleet:    liveConfig,
	},
	{
		name:     "solo-sweep",
		unitSize: 14,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// vodConfig is the paper's recommended deployment under contention: the
// four joint models sharing a 24 Mbps uplink and a 256 MiB edge, which
// holds the cell's working set.
func vodConfig(seed int64, sessions int) fleet.Config {
	return fleet.Config{
		Content:       media.DramaShow(),
		Sessions:      sessions,
		Mix:           []core.PlayerKind{core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint},
		Mode:          cdnsim.Demuxed,
		CacheBytes:    256 << 20,
		MissPenalty:   60 * time.Millisecond,
		UplinkProfile: trace.Fixed(media.Kbps(24_000)),
		AccessProfile: trace.Fixed(media.Kbps(6_000)),
		ArrivalSpread: 30 * time.Second,
		Seed:          seed,
		CellSessions:  cellSessions,
		Shards:        1,
		MaxRetained:   -1,
	}
}

// resilientConfig turns on every optional request stage: a seeded fault
// plan, the default retry policy, HTTP/1.1 connections that idle out and
// lose packets, and an edge too small for the working set.
func resilientConfig(seed int64, sessions int) fleet.Config {
	cfg := vodConfig(seed, sessions)
	cfg.CacheBytes = 8 << 20
	tc := netsim.DefaultTransport(netsim.H1)
	tc.IdleTimeout = 700 * time.Millisecond
	tc.LossRate = 0.02
	cfg.Transport = &tc
	cfg.AccessRTT = 200 * time.Millisecond
	cfg.FaultPlan = &faults.Plan{
		Seed:  seed,
		Rate:  0.02,
		Kinds: append(faults.AllKinds(), faults.TransportKinds()...),
	}
	pol := faults.DefaultPolicy()
	cfg.Robustness = &pol
	return cfg
}

// liveConfig runs the low-latency trio in latency-target live mode with
// the live experiments' preset (4 s target, 1 s parts).
func liveConfig(seed int64, sessions int) fleet.Config {
	cfg := vodConfig(seed, sessions)
	cfg.Mix = experiments.LiveModels()
	cfg.Live = experiments.LiveConfig()
	return cfg
}

// soloVariants are the sessions solo-sweep plays on every trace: the 11
// VOD players demuxed, then best practice muxed.
var soloVariants = []struct {
	kind  core.PlayerKind
	muxed bool
}{
	{core.ExoPlayerDASH, false}, {core.ExoPlayerHLS, false}, {core.Shaka, false},
	{core.DashJS, false}, {core.BestPractice, false}, {core.BestPracticeIndependent, false},
	{core.BestPracticeAbandon, false}, {core.BolaJoint, false}, {core.MPCJoint, false},
	{core.VBRJoint, false}, {core.DynamicJoint, false}, {core.BestPractice, true},
}

// soloSpecs generates solo-sweep's sessions for traces [from, to): each
// trace is a random walk between 400 and 2500 Kbps re-drawn every 4 s over
// a minute, seeded from the run seed and the trace index.
func soloSpecs(seed int64, from, to int) []core.Spec {
	content := media.DramaShow()
	specs := make([]core.Spec, 0, (to-from)*len(soloVariants))
	for i := from; i < to; i++ {
		p := trace.RandomWalk(seed*10_007+int64(i), media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute)
		for _, v := range soloVariants {
			specs = append(specs, core.Spec{Content: content, Profile: p, Player: v.kind, Muxed: v.muxed})
		}
	}
	return specs
}

// unit is one piece of a generated input: exactly what the program
// receives in one timed call sequence.
type unit struct {
	fleet *fleet.Config // fleet workloads
	solo  []core.Spec   // solo-sweep
}

// unit generates unit k of a seed's input with size sessions (fleets) or
// traces (solo-sweep). Fleet unit k of seed s runs with fleet seed
// 1000·s+k; solo unit k plays traces [k·size, (k+1)·size).
func (w *workload) unit(seed int64, k, size int) unit {
	if w.fleet != nil {
		cfg := w.fleet(seed*1_000+int64(k), size)
		return unit{fleet: &cfg}
	}
	return unit{solo: soloSpecs(seed, k*size, (k+1)*size)}
}

// input generates a run's units for a seed.
func (w *workload) input(seed int64) []unit {
	units := make([]unit, unitsPerInput)
	for k := range units {
		units[k] = w.unit(seed, k, w.unitSize)
	}
	return units
}

// warmUnit is the smallest piece of a seed's input: unit 0 cut down to one
// cell, or to one trace.
func (w *workload) warmUnit(seed int64) unit {
	if w.fleet != nil {
		return w.unit(seed, 0, cellSessions)
	}
	return w.unit(seed, 0, 1)
}

// setup generates the input from the seed and does the work a pass must
// not pay for: every model of the workload is built once through the
// manifest round trip and the warm-up unit runs, so the lazily built
// content, combination and key tables exist before timing starts.
func setup(w *workload, seed int64) ([]unit, error) {
	units := w.input(seed)
	var kinds []core.PlayerKind
	if w.fleet != nil {
		kinds = units[0].fleet.Mix
	} else {
		for _, v := range soloVariants {
			kinds = append(kinds, v.kind)
		}
	}
	for _, k := range kinds {
		if _, _, err := core.BuildModel(k, media.DramaShow(), core.ManifestOptions{}); err != nil {
			return nil, fmt.Errorf("setup: build %s: %w", k, err)
		}
	}
	if p := runPass(w.warmUnit(seed)); p.failed > 0 {
		return nil, fmt.Errorf("setup: warm-up: %w", p.err)
	}
	return units, nil
}

// passOut is one pass's measurements. Only the program calls are inside
// wall and the allocation counters; checking and fingerprinting are not.
type passOut struct {
	sessions    int
	failed      int
	err         error // the first failure, for the log
	wall        time.Duration
	mallocs     uint64
	allocBytes  uint64
	fingerprint string
	playMs      []float64 // solo-sweep: host time of each core.Play
}

// runPass runs the program once over a unit and checks its output.
func runPass(u unit) passOut {
	if u.fleet != nil {
		return fleetPass(*u.fleet)
	}
	return soloPass(u.solo)
}

func fleetPass(cfg fleet.Config) passOut {
	out := passOut{sessions: cfg.Sessions}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := fleet.Run(cfg)
	out.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	out.mallocs, out.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if err == nil {
		err = checkFleet(res, cfg.Sessions)
	}
	if err == nil {
		out.fingerprint, err = fleetFingerprint(res)
	}
	if err != nil {
		// An aggregate invariant cannot be pinned on one session, so a
		// broken fleet fails every session in it.
		out.failed, out.err = cfg.Sessions, err
	}
	return out
}

// checkFleet verifies the aggregate invariants of a finished fleet: every
// session accounted for, every reported statistic finite, and the edge's
// counters consistent. A simulated abort (Ended false) is an output, not a
// failure.
func checkFleet(res *fleet.Result, n int) error {
	f := res.Fleet
	if f.Sessions != n {
		return fmt.Errorf("fleet reports %d sessions, want %d", f.Sessions, n)
	}
	if res.Completed < 0 || res.Completed > n {
		return fmt.Errorf("fleet reports %d completed of %d", res.Completed, n)
	}
	vals := []float64{f.JainVideoKbps, res.Cache.HitRatio(), res.Cache.ByteHitRatio()}
	for _, s := range []stats.Summary{f.Score, f.VideoKbps, f.AudioKbps, f.RebufferSeconds, f.StartupSeconds} {
		vals = append(vals, s.Min, s.P10, s.Median, s.P90, s.Max, s.Mean)
	}
	if f.Live != nil {
		l := f.Live.LatencySeconds
		vals = append(vals, l.Min, l.P10, l.Median, l.P90, l.Max, l.Mean)
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("fleet reports a non-finite statistic")
		}
	}
	if c := res.Cache; c.Hits+c.Misses != c.Requests || c.Hits < 0 || c.BytesOrigin > c.BytesServed {
		return fmt.Errorf("edge counters inconsistent: %+v", c)
	}
	return nil
}

// fleetFingerprint is the sha256 of the fleet's canonical report JSON.
func fleetFingerprint(res *fleet.Result) (string, error) {
	var buf bytes.Buffer
	if err := res.Report("drama").WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// soloRow is what solo-sweep keeps of a session for its fingerprint.
type soloRow struct {
	Ended   bool           `json:"ended"`
	Metrics report.Metrics `json:"metrics"`
}

func soloPass(specs []core.Spec) passOut {
	out := passOut{sessions: len(specs), playMs: make([]float64, len(specs))}
	metrics := make([]qoe.Metrics, len(specs))
	ended := make([]bool, len(specs))
	errs := make([]error, len(specs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, spec := range specs {
		t0 := time.Now()
		s, err := core.Play(spec)
		out.playMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			errs[i] = err
			continue
		}
		metrics[i], ended[i] = s.Metrics, s.Result.Ended
	}
	out.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	out.mallocs, out.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc

	h := sha256.New()
	for i := range specs {
		line, err := json.Marshal(soloRow{Ended: ended[i], Metrics: report.MetricsFrom(metrics[i])})
		if errs[i] == nil && err != nil {
			errs[i] = fmt.Errorf("session %d: metrics not finite: %w", i, err)
		}
		if errs[i] != nil {
			out.failed++
			if out.err == nil {
				out.err = errs[i]
			}
			continue
		}
		h.Write(line)
	}
	out.fingerprint = hex.EncodeToString(h.Sum(nil))
	return out
}
