// Package core is the library's high-level API: build a demuxed content
// asset, pick a player model and a network profile, run a streaming
// session, and read back the timeline and QoE metrics.
//
// It wires the full stack the way a deployment would: the chosen protocol's
// manifest is generated and re-parsed, and the player model is constructed
// from the parsed manifest — never from ground truth the real player could
// not see. The round trip for the default manifest runs once per content
// and player kind per process (see ParseManifest), and so does everything
// a model derives from the manifest alone; every session still gets a
// fresh model, copied from the parse's unused one.
//
// Play runs each session on simulation state an earlier Play left: an
// engine, a link and a player.Pool, whose Session object it reuses. A warm
// Play allocates little more than what its caller keeps: the model, the
// Session with its Result, and the Result's logs.
package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/dashjs"
	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/abr/lowlat"
	"demuxabr/internal/abr/shaka"
	"demuxabr/internal/faults"
	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// PlayerKind names one of the library's player models.
type PlayerKind string

// The available player models.
const (
	// ExoPlayerDASH is ExoPlayer v2.10 with a DASH manifest (§3.2).
	ExoPlayerDASH PlayerKind = "exoplayer-dash"
	// ExoPlayerHLS is ExoPlayer v2.10 with an HLS master playlist (§3.2).
	ExoPlayerHLS PlayerKind = "exoplayer-hls"
	// Shaka is Shaka Player v2.5 (§3.3); DASH and HLS behave identically
	// when the HLS manifest lists all combinations.
	Shaka PlayerKind = "shaka"
	// DashJS is the dash.js v2.9 reference player (§3.4).
	DashJS PlayerKind = "dashjs"
	// BestPractice is the paper's §4 joint audio/video adaptation design.
	BestPractice PlayerKind = "bestpractice"
	// BestPracticeIndependent ablates best practice 4 (chunk-synced
	// scheduling).
	BestPracticeIndependent PlayerKind = "bestpractice-independent"
	// BestPracticeAbandon adds in-flight chunk abandonment to the
	// best-practice player.
	BestPracticeAbandon PlayerKind = "bestpractice-abandon"
	// BolaJoint is the §5 future-work design: BOLA's utility objective
	// over the allowed audio/video combinations.
	BolaJoint PlayerKind = "bola-joint"
	// MPCJoint is a model-predictive joint adapter over the allowed
	// combinations (Yin et al. style lookahead).
	MPCJoint PlayerKind = "mpc-joint"
	// VBRJoint budgets actual per-chunk bytes (recovered from the media
	// playlists' byte ranges, §4.1) instead of declared averages.
	VBRJoint PlayerKind = "bestpractice-vbr"
	// DynamicJoint is dash.js's DYNAMIC strategy applied jointly — the
	// controlled counterpart of DashJS that isolates §3.4's independence.
	DynamicJoint PlayerKind = "dynamic-joint"
	// LLDefault is dash.js's plain throughput rule in a low-latency
	// session: no latency feedback anywhere in the decision.
	LLDefault PlayerKind = "ll-default"
	// LLL2A is the Learn2Adapt-LowLatency rule (virtual latency-violation
	// queue shrinking the bitrate budget).
	LLL2A PlayerKind = "ll-l2a"
	// LLLoLP is the LoL+ rule (low-percentile estimate, latency-gated
	// up-switch hysteresis).
	LLLoLP PlayerKind = "ll-lolp"
)

// PlayerKinds lists every selectable model.
func PlayerKinds() []PlayerKind {
	return []PlayerKind{ExoPlayerDASH, ExoPlayerHLS, Shaka, DashJS, BestPractice, BestPracticeIndependent, BestPracticeAbandon, BolaJoint, MPCJoint, VBRJoint, DynamicJoint, LLDefault, LLL2A, LLLoLP}
}

// ParsePlayerKind validates a player name.
func ParsePlayerKind(s string) (PlayerKind, error) {
	for _, k := range PlayerKinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("core: unknown player %q (have %v)", s, PlayerKinds())
}

// ManifestOptions controls what the server declares.
type ManifestOptions struct {
	// Combos is the HLS variant list (default: the curated H_sub pairing).
	Combos []media.Combo
	// AudioOrder is the HLS rendition order (default: ladder order,
	// lowest first). The first entry is what ExoPlayer-HLS pins.
	AudioOrder []*media.Track
}

// BuildModel constructs a player model for the content, routing the
// manifest information through the real encoders and parsers. It returns
// the model and the combination list the server declared (nil for pure
// DASH models, which get no combination restriction — the §2.3 gap).
// It is ParseManifest followed by NewModel: with zero options the parse
// is the shared memoized one, so the returned list must not be modified,
// and the model is always new.
func BuildModel(kind PlayerKind, c *media.Content, mo ManifestOptions) (abr.Algorithm, []media.Combo, error) {
	m, err := ParseManifest(kind, c, mo)
	if err != nil {
		return nil, nil, err
	}
	return m.NewModel(), m.Allowed(), nil
}

// ParsedManifest is what one player kind reads from the server's
// manifest: the DASH ladders, or the HLS combinations and rendition order
// (plus, for VBRJoint, the per-chunk sizes of the media playlists), and a
// model of the kind built from them that never runs. It depends only on
// the kind, the content and the manifest options, and it is never written
// after ParseManifest returns, so sessions on any number of goroutines can
// share one and build their models from it.
type ParsedManifest struct {
	combos []media.Combo // HLS kinds: the declared combinations
	// newModel copies the parse's unused model (see prototype).
	newModel func() abr.Algorithm
}

// ParseManifest generates the manifest player kind reads for the content
// and parses it back, the round trip BuildModel makes.
//
// With zero options the result is memoized per (kind, content): the first
// call parses, and every later call, on any goroutine, returns the same
// read-only *ParsedManifest. Entries live for the life of the process, one
// per content and kind; contents are immutable after construction and the
// program builds a bounded number of them. Non-zero options always parse
// afresh: their Combos and AudioOrder slices belong to the caller, who may
// change them after the call, so neither their identity nor their value
// at the call is a safe key.
func ParseManifest(kind PlayerKind, c *media.Content, mo ManifestOptions) (*ParsedManifest, error) {
	if mo.Combos != nil || mo.AudioOrder != nil {
		return parseManifest(kind, c, mo)
	}
	key := parsedKey{kind, c}
	if m, ok := parsed.Load(key); ok {
		return m.(*ParsedManifest), nil
	}
	m, err := parseManifest(kind, c, mo)
	if err != nil {
		return nil, err
	}
	shared, _ := parsed.LoadOrStore(key, m)
	return shared.(*ParsedManifest), nil
}

// parsed memoizes ParseManifest's zero-option parses: parsedKey →
// *ParsedManifest. Concurrent first calls may each parse, but LoadOrStore
// hands all of them the one stored result.
var parsed sync.Map

// parsedKey identifies one memoized parse.
type parsedKey struct {
	kind    PlayerKind
	content *media.Content
}

// parseManifest is ParseManifest's round trip, without the memo.
func parseManifest(kind PlayerKind, c *media.Content, mo ManifestOptions) (*ParsedManifest, error) {
	if mo.Combos == nil {
		mo.Combos = media.HSub(c)
	}
	m := new(ParsedManifest)
	switch kind {
	case ExoPlayerDASH, DashJS:
		video, audio, err := RoundTripMPD(c)
		if err != nil {
			return nil, err
		}
		if kind == ExoPlayerDASH {
			m.newModel = prototype(exoplayer.NewDASH(video, audio))
		} else {
			m.newModel = prototype(dashjs.New(video, audio))
		}
		return m, nil
	case ExoPlayerHLS, Shaka, BestPractice, BestPracticeIndependent, BestPracticeAbandon, BolaJoint, MPCJoint, VBRJoint, DynamicJoint, LLDefault, LLL2A, LLLoLP:
		// The HLS kinds, below.
	default:
		return nil, fmt.Errorf("core: unknown player kind %q", kind)
	}
	combos, order, err := RoundTripMaster(c, mo.Combos, mo.AudioOrder)
	if err != nil {
		return nil, err
	}
	if len(combos) == 0 {
		// Every HLS model starts on a declared combination.
		return nil, fmt.Errorf("core: %s: the master playlist declares no combination", kind)
	}
	m.combos = combos
	// The sorted list and its utilities, which the joint and low-latency
	// models share.
	allowed := abr.NewAllowed(combos)
	switch kind {
	case ExoPlayerHLS:
		m.newModel = prototype(exoplayer.NewHLS(combos, order))
	case Shaka:
		m.newModel = prototype(shaka.NewHLS(combos))
	case BestPractice:
		m.newModel = prototype(jointabr.New(allowed))
	case BestPracticeIndependent:
		m.newModel = prototype(jointabr.NewIndependent(allowed))
	case BestPracticeAbandon:
		m.newModel = prototype(jointabr.New(allowed, jointabr.WithAbandonment()))
	case BolaJoint:
		m.newModel = prototype(jointabr.NewBolaJoint(allowed, 0))
	case MPCJoint:
		m.newModel = prototype(jointabr.NewMPC(allowed, 0))
	case VBRJoint:
		sizer, err := chunkSizerFromPlaylists(c)
		if err != nil {
			return nil, err
		}
		m.newModel = prototype(jointabr.NewVBRAware(allowed, sizer))
	case DynamicJoint:
		m.newModel = prototype(jointabr.NewDynamicJoint(allowed))
	case LLDefault:
		m.newModel = prototype(lowlat.NewDefault(allowed))
	case LLL2A:
		m.newModel = prototype(lowlat.NewL2A(allowed))
	case LLLoLP:
		m.newModel = prototype(lowlat.NewLoLP(allowed))
	}
	return m, nil
}

// prototype returns a constructor of models that are copies of proto, in
// one allocation each. proto must never run. Every model holds its
// per-session state by value, so a copy of a new model is a new model; the
// copies share what proto derived from the manifest (ExoPlayer's
// predetermined combinations and video bitrate table, dash.js's Bola
// rules, Shaka's sorted variants, the joint models' abr.Allowed), which no
// model writes. A model that had run could not be copied this way: its
// estimator windows would already point into it.
func prototype[T any, M interface {
	*T
	abr.Algorithm
}](proto M) func() abr.Algorithm {
	return func() abr.Algorithm {
		m := new(T)
		*m = *proto
		return M(m)
	}
}

// Allowed returns the combination list the server declared; nil for pure
// DASH kinds. Callers must not modify it.
func (m *ParsedManifest) Allowed() []media.Combo { return m.combos }

// NewModel constructs a fresh model of the manifest's player kind, in one
// allocation: a copy of the parse's unused model (see prototype).
func (m *ParsedManifest) NewModel() abr.Algorithm { return m.newModel() }

// chunkSizerFromPlaylists recovers per-chunk byte sizes the way a §4.1
// client does: from the single-file media playlists' EXT-X-BYTERANGE rows.
func chunkSizerFromPlaylists(c *media.Content) (jointabr.ChunkSizer, error) {
	sizes := make(map[string][]int64, len(c.Tracks()))
	for _, tr := range c.Tracks() {
		var buf bytes.Buffer
		if err := hls.GenerateMedia(c, tr, hls.SingleFile, false).Encode(&buf); err != nil {
			return nil, err
		}
		pl, err := hls.ParseMedia(&buf)
		if err != nil {
			return nil, err
		}
		per := make([]int64, len(pl.Segments))
		for i, seg := range pl.Segments {
			per[i] = seg.ByteRangeLength
		}
		sizes[tr.ID] = per
	}
	return func(tr *media.Track, idx int) int64 {
		per := sizes[tr.ID]
		if idx < 0 || idx >= len(per) {
			return 0
		}
		return per[idx]
	}, nil
}

// RoundTripMPD generates the content's MPD, parses it back and returns the
// video and audio ladders a real DASH client would reconstruct from it.
func RoundTripMPD(c *media.Content) (media.Ladder, media.Ladder, error) {
	var buf bytes.Buffer
	if err := dash.Generate(c).Encode(&buf); err != nil {
		return nil, nil, err
	}
	mpd, err := dash.Parse(&buf)
	if err != nil {
		return nil, nil, err
	}
	return dash.Ladders(mpd)
}

// RoundTripMaster generates a master playlist declaring combos with the
// audio renditions in order (nil: ladder order), parses it back and
// returns the combination list and rendition order a real HLS client
// would read from it.
func RoundTripMaster(c *media.Content, combos []media.Combo, order []*media.Track) ([]media.Combo, []*media.Track, error) {
	var buf bytes.Buffer
	if err := hls.GenerateMaster(c, combos, order).Encode(&buf); err != nil {
		return nil, nil, err
	}
	m, err := hls.ParseMaster(&buf)
	if err != nil {
		return nil, nil, err
	}
	parsed, err := hls.CombosFromMaster(m, c)
	if err != nil {
		return nil, nil, err
	}
	parsedOrder, err := hls.AudioOrderFromMaster(m, c)
	if err != nil {
		return nil, nil, err
	}
	return parsed, parsedOrder, nil
}

// Spec describes one streaming session.
type Spec struct {
	// Content is the asset (default: the paper's drama show).
	Content *media.Content
	// Profile is the network condition (required).
	Profile trace.Profile
	// Player picks a built-in model (default BestPractice). Ignored when
	// Model is set.
	Player PlayerKind
	// Model overrides Player with a custom algorithm.
	Model abr.Algorithm
	// Manifest controls server-side declarations.
	Manifest ManifestOptions
	// MaxBuffer, StartupBuffer, ResumeBuffer override the player engine's
	// defaults when non-zero.
	MaxBuffer     time.Duration
	StartupBuffer time.Duration
	ResumeBuffer  time.Duration
	// Muxed streams each combination as one combined object (the paper's
	// muxed packaging baseline). Requires a joint player model.
	Muxed bool
	// Faults injects seeded download failures and link blackouts (demuxed
	// sessions only).
	Faults *faults.Plan
	// Robustness enables retries, blacklisting and failover; nil keeps the
	// legacy fail-fast behaviour (the session aborts on the first fault).
	Robustness *faults.Policy
	// Deadline overrides the engine's default session deadline when
	// non-zero.
	Deadline time.Duration
	// Recorder, when non-nil, collects the session's flight-recorder
	// events (ABR decisions, request lifecycle, stalls, link-rate changes;
	// see internal/timeline). Nil disables recording.
	Recorder *timeline.Recorder
	// RTT is the link's request round trip; zero keeps the paper's
	// negligible-RTT testbed. Transport handshake costs scale with it.
	RTT time.Duration
	// Transport, when non-nil, routes requests through transport
	// connections (handshakes, stream caps, HoL coupling; see
	// netsim.Conn). Nil keeps requests directly on the link.
	Transport *netsim.TransportConfig
	// Live, when non-nil, runs the session in latency-target live mode
	// (availability gating, catch-up rate control, live-edge resync; see
	// player.LiveConfig). Nil keeps the exact VOD behaviour.
	Live *player.LiveConfig
	// KeepTimeline keeps the per-sample log in Result.Timeline (see
	// player.Config.KeepTimeline). Set it only where the log is read.
	KeepTimeline bool
}

// Session is a finished run: the raw result plus derived metrics.
type Session struct {
	// Model names the algorithm that ran.
	Model string
	// Result is the stall and chunk log, plus the per-sample timeline
	// when Spec.KeepTimeline was set.
	Result *player.Result
	// Metrics are the QoE numbers (off-manifest counted against Allowed).
	Metrics qoe.Metrics
	// Allowed is the server-declared combination list (may be nil). It
	// may be shared with other sessions: do not modify it.
	Allowed []media.Combo
}

// playState is the simulation state Play reuses: the engine with its
// freelists, the unbounded uplink whose one leaf is the session's link,
// the Pool of request records, buffer-fold arrays and the Session object
// Pool.Run gives back, and the working storage of qoe.Compute.
type playState struct {
	eng  *netsim.Engine
	up   *netsim.Uplink
	pool player.Pool
	qoe  qoe.Scratch
}

// playStates is a stack of the states no Play is using. Any goroutine
// takes the state put last, so a Play finds a warm one whenever one is
// free; it never holds more than the most Plays that have run at once.
var playStates struct {
	sync.Mutex
	free []*playState
}

// takePlayState takes a free state off playStates, or makes one.
func takePlayState() *playState {
	playStates.Lock()
	defer playStates.Unlock()
	if k := len(playStates.free); k > 0 {
		st := playStates.free[k-1]
		playStates.free[k-1] = nil
		playStates.free = playStates.free[:k-1]
		return st
	}
	eng := netsim.NewEngine()
	return &playState{eng: eng, up: netsim.NewUplink(eng, unbounded)}
}

// unbounded is the capacity of Play's uplink: no limit, so the session's
// link alone shapes it.
var unbounded trace.Profile = trace.Fixed(math.MaxInt64)

// putPlayState puts a state back on playStates, for the next Play.
func putPlayState(st *playState) {
	playStates.Lock()
	playStates.free = append(playStates.free, st)
	playStates.Unlock()
}

// sessionAndResult is a Session with its Result, allocated together.
type sessionAndResult struct {
	Session
	res player.Result
}

// Play runs one session in the discrete-event simulator, on the state an
// earlier Play left, reset. Only a run that succeeded gives its state
// back: a failed one can leave events pending. The Session and its Result
// are the caller's, and share nothing with later Plays.
func Play(spec Spec) (*Session, error) {
	if spec.Profile == nil {
		return nil, fmt.Errorf("core: nil network profile")
	}
	if spec.Content == nil {
		spec.Content = media.DramaShow()
	}
	model := spec.Model
	allowed := spec.Manifest.Combos
	if model == nil {
		kind := spec.Player
		if kind == "" {
			kind = BestPractice
		}
		var err error
		model, allowed, err = BuildModel(kind, spec.Content, spec.Manifest)
		if err != nil {
			return nil, err
		}
	}
	st := takePlayState()
	st.eng.Reset()
	st.up.Reset(unbounded)
	link := st.up.NewLeaf(spec.Profile)
	link.RTT = spec.RTT
	if spec.Recorder != nil {
		link.SetRecorder(spec.Recorder, "link")
	}
	out := new(sessionAndResult)
	err := st.pool.Run(link, link, player.Config{
		Content:       spec.Content,
		Model:         model,
		MaxBuffer:     spec.MaxBuffer,
		StartupBuffer: spec.StartupBuffer,
		ResumeBuffer:  spec.ResumeBuffer,
		Muxed:         spec.Muxed,
		FaultPlan:     spec.Faults,
		Robustness:    spec.Robustness,
		Deadline:      spec.Deadline,
		Recorder:      spec.Recorder,
		Transport:     spec.Transport,
		Live:          spec.Live,
		KeepTimeline:  spec.KeepTimeline,
	}, &out.res)
	if err != nil {
		return nil, err
	}
	out.Session = Session{
		Model:   model.Name(),
		Result:  &out.res,
		Metrics: st.qoe.Compute(&out.res, spec.Content, allowed, qoe.DefaultWeights()),
		Allowed: allowed,
	}
	putPlayState(st)
	return &out.Session, nil
}
