package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
)

// The cell driver assembles fleet cells and solo sessions from the
// layers' public APIs (netsim, cdnsim, core, player, qoe, stats) instead
// of calling fleet.Run or core.Play, so the benchmark can time the calls
// into each layer from outside the program. With a nil *tracer it records
// nothing; that untraced run is the tracing-overhead baseline, and tests
// pin its per-session metrics to fleet.Run's and core.Play's.

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's origin; parent is an index into the tracer's spans, -1 for a
// root. session is -1 for spans that belong to no single session.
type span struct {
	name       string
	arg        string
	start, end time.Duration
	parent     int
	session    int
	lane       int
}

// tracer keeps the driver's spans in memory and counts per-layer work.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	lane   int // the cell (fleets) or trace (solo) being driven

	sessions     int
	events       int
	pendingPeak  int
	decideUs     map[string][]float64 // decision host time by ABR package
	observeCalls int
	observeTime  time.Duration // observer hooks, abandonment checks, estimate reads

	timelineSamples, retries, abandons, faultEvents int
	usefulBytes, wastedBytes                        int64
	connSetups                                      int // full and resumed handshakes
	hsWait, holWait                                 time.Duration
	edgeRequests, edgeHits                          int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), decideUs: map[string][]float64{}}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name, arg string, session int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.spans = append(t.spans, span{
		name: name, arg: arg, start: time.Since(t.origin),
		parent: parent, session: session, lane: t.lane,
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open one, and returns
// its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.end = time.Since(t.origin)
	return s.end - s.start
}

// finished folds one session's result into the per-layer counters.
func (t *tracer) finished(r *player.Result, edge cdnsim.Stats) {
	if t == nil {
		return
	}
	t.sessions++
	t.timelineSamples += len(r.Timeline)
	t.retries += r.Retries
	t.abandons += len(r.Abandonments)
	t.faultEvents += len(r.Faults)
	for _, c := range r.Chunks {
		t.usefulBytes += c.Bytes
	}
	t.wastedBytes += r.WastedFaultBytes()
	for _, a := range r.AudioResets {
		t.wastedBytes += a.DiscardedBytes
	}
	if tr := r.Transport; tr != nil {
		t.connSetups += tr.Handshakes + tr.Resumes
		t.hsWait += tr.HandshakeWait
		t.holWait += tr.HoLWait
	}
	t.edgeRequests += edge.Requests
	t.edgeHits += edge.Hits
}

// step drives the engine event by event, exactly as Engine.Run does, and
// counts events and the peak pending-queue depth.
func step(eng *netsim.Engine, budget int, t *tracer) error {
	sp := t.begin("netsim.step_loop", "", -1)
	events, peak := 0, 0
	for ; events < budget; events++ {
		if !eng.Step() {
			break
		}
		if t != nil {
			peak = max(peak, eng.Pending())
		}
	}
	t.end(sp)
	if t != nil {
		t.events += events
		t.pendingPeak = max(t.pendingPeak, peak)
	}
	if events == budget {
		return fmt.Errorf("event budget %d exhausted at t=%v", budget, eng.Now())
	}
	return nil
}

// driveCell runs a single-cell fleet (Sessions ≤ CellSessions) the way
// fleet.Run runs each cell, and returns the per-session metrics in
// session-ID order. cfg must have Content, CacheBytes and AccessProfile
// set: the driver applies none of fleet.Run's defaults.
func driveCell(cfg fleet.Config, t *tracer) ([]qoe.Metrics, error) {
	n := cfg.Sessions
	if n <= 0 || n > cfg.CellSessions {
		return nil, fmt.Errorf("cell driver: %d sessions in cells of %d", n, cfg.CellSessions)
	}
	arrive := make([]time.Duration, n)
	if cfg.ArrivalSpread > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := range arrive {
			arrive[i] = time.Duration(rng.Int63n(int64(cfg.ArrivalSpread)))
		}
		sort.Slice(arrive, func(i, j int) bool { return arrive[i] < arrive[j] })
	}
	budget := cfg.MaxEvents
	if budget == 0 {
		budget = 20_000_000 + 2_000_000*n
	}
	eng := netsim.NewEngine()
	up := netsim.NewUplink(eng, cfg.UplinkProfile)
	edge := cdnsim.NewEdge(cdnsim.NewCache(cfg.CacheBytes), cfg.Mode, cfg.Content, n)
	acc := qoe.NewFleetAccumulator()
	var jain qoe.JainPartial
	metrics := make([]qoe.Metrics, n)
	finished := make([]bool, n)
	errs := make([]error, n)

	cell := t.begin("cell", "", -1)
	for id := 0; id < n; id++ {
		kind := cfg.Mix[id%len(cfg.Mix)]
		sp := t.begin("core.build_model", string(kind), id)
		model, combos, err := core.BuildModel(kind, cfg.Content, cfg.Manifest)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("session %d (%s): %w", id, kind, err)
		}
		leaf := up.NewLeaf(cfg.AccessProfile)
		leaf.RTT = cfg.AccessRTT
		pcfg := player.Config{
			Content:    cfg.Content,
			Model:      t.wrap(model, id),
			Muxed:      cfg.Mode == cdnsim.Muxed,
			MaxBuffer:  cfg.MaxBuffer,
			Deadline:   cfg.Deadline,
			MaxEvents:  budget,
			FaultPlan:  sessionPlan(cfg, id),
			Robustness: cfg.Robustness,
			Transport:  sessionTransport(cfg, id),
			Live:       cfg.Live,
			OnRequest: func(req player.ChunkRequest) time.Duration {
				sp := t.begin("cdnsim.edge", "", id)
				var hit bool
				if req.MuxedWith != nil {
					hit = edge.RequestMuxed(id, req.Track, req.MuxedWith, req.Index)
				} else {
					hit = edge.RequestTrack(id, req.Track, req.Index)
				}
				t.end(sp)
				if hit {
					return 0
				}
				return cfg.MissPenalty
			},
			OnDone: func(s *player.Session) {
				finished[id] = true
				r := s.Result()
				sp := t.begin("qoe.compute", "", id)
				m := qoe.Compute(r, cfg.Content, combos, qoe.DefaultWeights())
				t.end(sp)
				sp = t.begin("stats.accumulate", "", id)
				acc.Add(m, r.Ended)
				jain.Observe(m.AvgVideoBitrate.Kbps())
				t.end(sp)
				metrics[id] = m
				t.finished(r, edge.SessionStats(id))
			},
		}
		eng.Schedule(arrive[id], func() {
			if _, err := player.Start(leaf, leaf, pcfg); err != nil {
				errs[id] = err
			}
		})
	}
	err := step(eng, budget, t)
	t.end(cell)
	if err != nil {
		return nil, err
	}
	for id := range errs {
		if errs[id] != nil {
			return nil, fmt.Errorf("session %d: %w", id, errs[id])
		}
		if !finished[id] {
			return nil, fmt.Errorf("session %d never finished", id)
		}
	}
	return metrics, nil
}

// sessionPlan and sessionTransport derive session id's fault plan and
// transport seed from the fleet's, as fleet.Run does.
func sessionPlan(cfg fleet.Config, id int) *faults.Plan {
	if cfg.FaultPlan == nil {
		return nil
	}
	plan := *cfg.FaultPlan
	plan.Seed = cfg.FaultPlan.Seed + int64(id+1)*1_000_003
	return &plan
}

func sessionTransport(cfg fleet.Config, id int) *netsim.TransportConfig {
	if cfg.Transport == nil {
		return nil
	}
	tc := *cfg.Transport
	tc.Seed = cfg.Transport.Seed + cfg.Seed + int64(id+1)*1_000_003
	return &tc
}

// driveSolo plays one session the way core.Play does and returns its
// metrics.
func driveSolo(spec core.Spec, id int, t *tracer) (qoe.Metrics, error) {
	kind := spec.Player
	sess := t.begin("session", string(kind), id)
	defer t.end(sess)
	sp := t.begin("core.build_model", string(kind), id)
	model, allowed, err := core.BuildModel(kind, spec.Content, spec.Manifest)
	t.end(sp)
	if err != nil {
		return qoe.Metrics{}, err
	}
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, spec.Profile)
	link.RTT = spec.RTT
	s, err := player.Start(link, link, player.Config{
		Content:       spec.Content,
		Model:         t.wrap(model, id),
		MaxBuffer:     spec.MaxBuffer,
		StartupBuffer: spec.StartupBuffer,
		ResumeBuffer:  spec.ResumeBuffer,
		Muxed:         spec.Muxed,
		FaultPlan:     spec.Faults,
		Robustness:    spec.Robustness,
		Deadline:      spec.Deadline,
		Transport:     spec.Transport,
		Live:          spec.Live,
		OnDone:        func(*player.Session) { eng.Stop() },
	})
	if err != nil {
		return qoe.Metrics{}, err
	}
	if err := step(eng, 20_000_000, t); err != nil {
		return qoe.Metrics{}, err
	}
	r := s.Result()
	sp = t.begin("qoe.compute", "", id)
	m := qoe.Compute(r, spec.Content, allowed, qoe.DefaultWeights())
	t.end(sp)
	t.finished(r, cdnsim.Stats{})
	return m, nil
}

// wrap returns model behind a timing decorator (the model itself when t
// is nil). The decorator has exactly the optional interfaces the model
// has, so the player takes the same code paths with and without it.
func (t *tracer) wrap(model abr.Algorithm, session int) abr.Algorithm {
	if t == nil {
		return model
	}
	pkg := reflect.Indirect(reflect.ValueOf(model)).Type().PkgPath()
	base := &timedModel{t: t, inner: model, pkg: pkg[strings.LastIndex(pkg, "/")+1:], session: session}
	ab, isAb := model.(abr.Abandoner)
	bw, isBw := model.(abr.BandwidthReporter)
	tab, tbw := timedAbandoner{base, ab}, timedReporter{base, bw}
	if j, ok := model.(abr.JointAlgorithm); ok {
		d := &timedJoint{base, j}
		switch {
		case isAb && isBw:
			return struct {
				*timedJoint
				timedAbandoner
				timedReporter
			}{d, tab, tbw}
		case isAb:
			return struct {
				*timedJoint
				timedAbandoner
			}{d, tab}
		case isBw:
			return struct {
				*timedJoint
				timedReporter
			}{d, tbw}
		}
		return d
	}
	d := &timedPerType{base, model.(abr.PerTypeAlgorithm)}
	switch {
	case isAb && isBw:
		return struct {
			*timedPerType
			timedAbandoner
			timedReporter
		}{d, tab, tbw}
	case isAb:
		return struct {
			*timedPerType
			timedAbandoner
		}{d, tab}
	case isBw:
		return struct {
			*timedPerType
			timedReporter
		}{d, tbw}
	}
	return d
}

// timedModel times the observer hooks of one session's model.
type timedModel struct {
	t       *tracer
	inner   abr.Algorithm
	pkg     string // the model's package under internal/abr
	session int
}

func (m *timedModel) Name() string { return m.inner.Name() }

// observed charges one call on the download-progress path, begun at start.
func (t *tracer) observed(start time.Time) {
	t.observeTime += time.Since(start)
	t.observeCalls++
}

func (m *timedModel) OnStart(ti abr.TransferInfo) {
	start := time.Now()
	m.inner.OnStart(ti)
	m.t.observed(start)
}

func (m *timedModel) OnProgress(ti abr.TransferInfo) {
	start := time.Now()
	m.inner.OnProgress(ti)
	m.t.observed(start)
}

func (m *timedModel) OnComplete(ti abr.TransferInfo) {
	start := time.Now()
	m.inner.OnComplete(ti)
	m.t.observed(start)
}

// decided records one decision span's duration under the model's package.
func (m *timedModel) decided(sp int) {
	d := m.t.end(sp)
	m.t.decideUs[m.pkg] = append(m.t.decideUs[m.pkg], float64(d.Nanoseconds())/1e3)
}

type timedJoint struct {
	*timedModel
	j abr.JointAlgorithm
}

func (m *timedJoint) SelectCombo(st abr.State) media.Combo {
	sp := m.t.begin("abr.decide", m.pkg, m.session)
	c := m.j.SelectCombo(st)
	m.decided(sp)
	return c
}

type timedPerType struct {
	*timedModel
	p abr.PerTypeAlgorithm
}

func (m *timedPerType) SelectTrack(typ media.Type, st abr.State) *media.Track {
	sp := m.t.begin("abr.decide", m.pkg, m.session)
	tr := m.p.SelectTrack(typ, st)
	m.decided(sp)
	return tr
}

type timedAbandoner struct {
	m *timedModel
	a abr.Abandoner
}

func (a timedAbandoner) Abandon(p abr.DownloadProgress) *media.Track {
	start := time.Now()
	tr := a.a.Abandon(p)
	a.m.t.observed(start)
	return tr
}

type timedReporter struct {
	m *timedModel
	b abr.BandwidthReporter
}

func (r timedReporter) BandwidthEstimate() (media.Bps, bool) {
	start := time.Now()
	bps, ok := r.b.BandwidthEstimate()
	r.m.t.observed(start)
	return bps, ok
}

// layers reduces the tracer to the span- and counter-based per-layer
// metrics. Self time is a span's duration minus the part its child spans
// cover; the step loop's self time (netsim and player together) also
// excludes the observer time, which has no spans of its own.
func (t *tracer) layers() map[string]float64 {
	total := map[string]time.Duration{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		d := s.end - s.start
		total[s.name] += d
		if s.parent >= 0 {
			child[s.parent] += d
		}
	}
	var stepSelf time.Duration
	for i, s := range t.spans {
		if s.name == "netsim.step_loop" {
			stepSelf += s.end - s.start - child[i]
		}
	}
	stepSelf -= t.observeTime

	n := float64(max(t.sessions, 1))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	out := map[string]float64{
		"netsim.engine.events_per_session":        float64(t.events) / n,
		"netsim.engine.pending_peak":              float64(t.pendingPeak),
		"netsim_player.self_us_per_session":       us(stepSelf),
		"netsim.transport.handshakes_per_session": float64(t.connSetups) / n,
		"netsim.transport.hs_wait_sim_s":          t.hsWait.Seconds() / n,
		"netsim.transport.hol_wait_sim_s":         t.holWait.Seconds() / n,
		"abr.observe.calls_per_session":           float64(t.observeCalls) / n,
		"abr.observe.us_per_session":              us(t.observeTime),
		"core.build_model.us_per_session":         us(total["core.build_model"]),
		"player.timeline_samples_per_session":     float64(t.timelineSamples) / n,
		"player.retries_per_session":              float64(t.retries) / n,
		"player.abandons_per_session":             float64(t.abandons) / n,
		"player.useful_byte_frac":                 ratio(t.usefulBytes, t.usefulBytes+t.wastedBytes),
		"faults.failures_per_session":             float64(t.faultEvents) / n,
		"cdnsim.edge.requests_per_session":        float64(t.edgeRequests) / n,
		"cdnsim.edge.hit_ratio":                   ratio(t.edgeHits, t.edgeRequests),
		"cdnsim.edge.us_per_session":              us(total["cdnsim.edge"]),
		"qoe.compute.us_per_session":              us(total["qoe.compute"]),
		"stats.accumulate.us_per_session":         us(total["stats.accumulate"]),
	}
	decisions := 0
	for _, p := range abrPackages {
		xs := t.decideUs[p]
		decisions += len(xs)
		out["abr."+p+".decide_us_p50"] = percentile(xs, 50)
		out["abr."+p+".decide_us_p99"] = percentile(xs, 99)
	}
	out["abr.decide.calls_per_session"] = float64(decisions) / n
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeChromeTrace writes the spans as Chrome-trace JSON: one complete
// ("X") event per span, one thread lane per cell or trace.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Cat: s.arg, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"span": i, "parent": s.parent, "session": s.session},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
