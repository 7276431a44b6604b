// Package player is the streaming session engine: it drives an ABR
// algorithm against a simulated bottleneck link, maintaining separate audio
// and video playback buffers, and records the timeline the paper's figures
// are drawn from.
//
// Two download scheduling disciplines are provided, matching the behaviours
// the paper contrasts in §3.5:
//
//   - chunk-synced (ExoPlayer, Shaka, best practice): audio and video chunk
//     i are requested together and chunk i+1 waits for both — audio and
//     video prefetching stays balanced at chunk granularity;
//   - independent (dash.js): each type runs its own free-running loop
//     against its own buffer target — buffers can diverge arbitrarily.
//
// The discipline is chosen by the algorithm's interface: a
// abr.JointAlgorithm runs chunk-synced, a abr.PerTypeAlgorithm runs
// independent loops.
package player

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/timeline"
)

// logInterval is the timeline sampling period.
const logInterval = 500 * time.Millisecond

// Config parameterizes a streaming session.
type Config struct {
	// Content is the asset to stream.
	Content *media.Content
	// Model is the adaptation algorithm; it must implement either
	// abr.JointAlgorithm or abr.PerTypeAlgorithm.
	Model abr.Algorithm
	// Muxed streams each combination as one combined object (the paper's
	// muxed packaging baseline): a single download per chunk position
	// carries both components, so the audio/video balance problem cannot
	// arise — at the §1 storage and CDN costs. Requires a JointAlgorithm.
	Muxed bool
	// AudioResets schedules mid-session audio stream resets (e.g. the
	// viewer switches audio language): at each instant, buffered audio
	// beyond the playhead is discarded and refetched from the playback
	// position. Buffered video survives — a property only demuxed
	// packaging has; in Muxed mode the whole buffer is discarded.
	// Requires a per-type model or SyncWindow > 0 (strict chunk pairing
	// cannot express the audio catch-up), or Muxed mode.
	AudioResets []time.Duration
	// SyncWindow loosens joint scheduling from strict chunk pairing to
	// bounded skew: each stream may run up to SyncWindow chunk positions
	// ahead of the other, with the combination still decided jointly per
	// position. This is §4.2's "synchronize ... at the chunk level or in
	// terms of a small number of chunks" dial. 0 (default) keeps strict
	// pairing. Ignored for per-type models and in muxed mode.
	SyncWindow int
	// MaxBuffer caps each buffer; fetching pauses while a gate buffer is at
	// or above it. Default 30 s.
	MaxBuffer time.Duration
	// StartupBuffer is the buffered duration (per type) required before the
	// first frame plays. Default: one chunk.
	StartupBuffer time.Duration
	// ResumeBuffer is the buffered duration required to resume after a
	// stall. Default: one chunk.
	ResumeBuffer time.Duration
	// Deadline aborts the session (Ended == false) if playback has not
	// finished by this virtual time — e.g. a link too slow to ever drain
	// the content. Default: 5× content duration + 5 minutes.
	Deadline time.Duration
	// MaxEvents bounds the simulation (safety). Default 20 million.
	MaxEvents int
	// FaultPlan injects deterministic per-segment download failures and
	// applies the plan's blackout windows to the links. Nil injects
	// nothing. Requires demuxed mode.
	FaultPlan *faults.Plan
	// Robustness is the download retry/failover policy: per-request
	// timeout, seeded backoff, blacklisting, failover. Nil keeps the
	// legacy fail-fast behaviour — the first download failure aborts the
	// session (Result.Aborted). Requires demuxed mode.
	Robustness *faults.Policy
	// OnDone fires exactly once when the session finishes or aborts, after
	// the result is final and the session's in-flight transfers have been
	// torn down. The engine keeps running after it: Run and RunSplit
	// return once the engine drains, and fleet sessions share theirs. A
	// session run by Pool.Run goes back to its Pool when Run returns, so
	// OnDone must not keep the *Session.
	OnDone func(*Session)
	// OnRequest observes every chunk request that puts bytes on the wire
	// and returns an extra first-byte delay — the hook a CDN edge uses to
	// serve from cache (zero) or charge an origin round trip (miss
	// penalty). Fail-fast faults (404/503, hung responses) never reach it.
	// The returned delay must be non-negative; a negative value is clamped
	// to zero at the network layer (the discrete-event engine cannot
	// schedule into the past).
	OnRequest func(ChunkRequest) time.Duration
	// Recorder, when non-nil, receives the session's flight-recorder
	// events: ABR decisions, request lifecycle, buffer samples, stalls,
	// faults (see internal/timeline). Events carry absolute engine time.
	// Nil disables recording at zero cost.
	Recorder *timeline.Recorder
	// Transport, when non-nil, routes every request through transport
	// connections (netsim.Conn): handshake round trips before the first
	// request and after idle timeouts or resets, per-connection stream
	// caps, and loss-driven HoL stalls. Demuxed H2/H3 sessions on a
	// shared bottleneck multiplex audio and video on one connection;
	// HTTP/1.1 (or split hosts) opens one connection per stream — the
	// demux request-doubling pathology at the transport layer. Nil keeps
	// requests directly on the links.
	Transport *netsim.TransportConfig
	// KeepTimeline fills Result.Timeline with one Sample per logging
	// tick, for a caller that plots or exports the per-sample log. The
	// zero value keeps no log: the buffer metrics are folded from each
	// tick either way, and the Recorder still receives every buffer
	// sample.
	KeepTimeline bool
	// Live, when non-nil, runs the session in latency-target live mode:
	// the content plays the role of a live stream whose edge advances in
	// real time, the session joins near the edge, chunk availability is
	// gated on the encoder (segment or CMAF-part granularity), playback
	// rate adapts to hold the latency target, and latency overruns resync
	// by jumping forward. Nil keeps the VOD behaviour at zero cost.
	Live *LiveConfig
}

// ChunkRequest identifies one wire request to the delivery path.
type ChunkRequest struct {
	// Index is the chunk position.
	Index int
	// Type is the component being fetched (Video for muxed objects).
	Type media.Type
	// Track is the requested track (the video component for muxed objects).
	Track *media.Track
	// MuxedWith is the audio component when the request is one muxed
	// object; nil for demuxed requests.
	MuxedWith *media.Track
	// Attempt counts retries of this chunk on this track, from 0.
	Attempt int
}

func (c *Config) setDefaults() error {
	if c.Content == nil {
		return errors.New("player: nil content")
	}
	if c.Model == nil {
		return errors.New("player: nil model")
	}
	if c.MaxBuffer == 0 {
		c.MaxBuffer = 30 * time.Second
	}
	if c.StartupBuffer == 0 {
		c.StartupBuffer = c.Content.ChunkDuration
	}
	if c.ResumeBuffer == 0 {
		c.ResumeBuffer = c.Content.ChunkDuration
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 20_000_000
	}
	if c.Deadline == 0 {
		c.Deadline = 5*c.Content.Duration + 5*time.Minute
	}
	if c.StartupBuffer > c.MaxBuffer || c.ResumeBuffer > c.MaxBuffer {
		return fmt.Errorf("player: startup/resume buffer exceeds max buffer %v", c.MaxBuffer)
	}
	if c.Live != nil {
		lc := c.Live.withDefaults()
		if lc.LatencyTarget <= 0 {
			return errors.New("player: live latency target must be positive")
		}
		if lc.PartTarget < 0 || lc.PartTarget > c.Content.ChunkDuration {
			return fmt.Errorf("player: live part target %v outside (0, chunk duration %v]", lc.PartTarget, c.Content.ChunkDuration)
		}
	}
	return nil
}

// supportsAudioReset reports whether the configured scheduler can express
// an audio-only catch-up.
func (c *Config) supportsAudioReset(joint bool) bool {
	return c.Muxed || !joint || c.SyncWindow > 0
}

// Session is the live state of one streaming run. A Session attaches to
// its links' engine without owning the run loop, so any number of sessions
// can share one engine (and, through it, shared bottlenecks and a shared
// CDN edge). A Pool makes every Session: Pool.Start schedules one, and
// Pool.Run also drives the engine until it drains.
//
// All times recorded in the Result, and all times reported to the ABR
// model, are session-relative (zero at Start), so a session's behaviour is
// invariant to its arrival time in a fleet.
type Session struct {
	cfg   Config
	eng   *netsim.Engine
	links [2]*netsim.Link // per media.Type; both entries equal on a shared bottleneck
	t0    time.Duration   // engine time at Start; all recorded times are relative to it

	joint     abr.JointAlgorithm
	perType   abr.PerTypeAlgorithm
	abandoner abr.Abandoner

	// Per-type download state, indexed by media.Type.
	next     [2]int           // next chunk index to fetch
	frontier [2]time.Duration // contiguous downloaded content end
	lastSel  [2]*media.Track

	// Scheduling state. A paired session (strict joint pairing, or muxed
	// objects) runs one loop, fetchJoint, whose chunk continuation is
	// jointChunkDone: jointLoop and jointCont. Every other session runs
	// one fetchStream loop per type: streamLoop[t] re-enters stream t's
	// loop and streamCont[t] is its chunk continuation. Each kind is bound
	// on the first session of that kind on the Session object and kept
	// for every later one (see loop).
	paired       bool
	jointLoop    func()
	jointCont    func()
	streamLoop   [2]func()
	streamCont   [2]func()
	jointPending int                 // paired: transfers in flight for the current chunk
	comboFor     map[int]media.Combo // windowed mode: joint decision per position
	inflight     [2]bool             // stream loops: a request chain is running for the type
	conns        [2]*netsim.Conn     // transport connections; both entries equal when multiplexed
	// current is, per type, the request that put the most recent transfer
	// on the wire; cancelStream cancels that transfer and a timeout only
	// acts on the current request's. It holds a reference (see request).
	current [2]*request
	// pool is the Pool the session started through. It supplies request
	// records and the buffer fold's sample array, and takes them back once
	// the session is done with them.
	pool *Pool
	// spare holds what this session built that a later session on the
	// same Session object reuses (see Pool.Release). The Pool makes it in
	// one allocation with the Session.
	spare *sessionSpare

	// Robustness state.
	pol *faults.Policy // normalized policy, in spare; nil = fail fast
	// timeoutLane carries the fixed per-request timeouts; nil without a
	// positive RequestTimeout.
	timeoutLane *netsim.Lane
	blacklist   *faults.Blacklist
	gen         [2]int // per-type generation; bumped on reset to void stale retry timers

	// rec is the flight recorder; nil when disabled.
	rec *timeline.Recorder

	// Playback state.
	started  bool
	playing  bool
	ended    bool
	playPos  time.Duration
	lastTick time.Duration
	underrun netsim.Handle
	stallAt  time.Duration

	// live is the latency-target controller state, in spare; nil for VOD
	// sessions (every live hook on the playback clock and the fetch loops
	// is guarded on it, so VOD behaviour is bit-identical to pre-live
	// code).
	live *liveState

	// logTick is the timeline-logging tick and underrunTick the underrun
	// alarm, both bound once per Session object so re-arming allocates no
	// closure. logLane is the engine's lane for logInterval.
	logTick      func()
	underrunTick func()
	logLane      *netsim.Lane

	res Result
}

// sessionSpare is what a finished session leaves on its Session object for
// the next session to start on it: the Result's logs, emptied, with their
// capacity; the windowed mode's decision map; the transport connections;
// the blacklist; and, held by value, the storage of the policy, the live
// state and the Result's TransportStats. start hands them out and
// teardown takes the logs back, so a session that reuses the object
// allocates none of them; Pool.Run's handOver takes out what its caller
// keeps.
type sessionSpare struct {
	chunks    []ChunkDecision
	timeline  []Sample
	stalls    []Stall
	abandons  []Abandonment
	resets    []AudioReset
	faults    []FaultEvent
	failovers []Failover
	comboFor  map[int]media.Combo
	conns     [2]*netsim.Conn
	blacklist *faults.Blacklist
	policy    faults.Policy
	live      liveState
	transport TransportStats
}

// pooledSession is a Session a Pool makes, in one allocation with its
// spare parts.
type pooledSession struct {
	Session
	spare sessionSpare
}

// Run executes a full streaming session of cfg.Content over the link and
// returns the recorded result: Pool.Run on a Pool of its own.
func Run(link *netsim.Link, cfg Config) (*Result, error) {
	return RunSplit(link, link, cfg)
}

// RunSplit executes a session with the video and audio streams on separate
// links — the §4.1 scenario where the demuxed tracks live on different
// servers and do not share a bottleneck. Both links must be driven by the
// same engine. It is Pool.Run on a Pool of its own.
func RunSplit(videoLink, audioLink *netsim.Link, cfg Config) (*Result, error) {
	res := new(Result)
	if err := new(Pool).Run(videoLink, audioLink, cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Start validates the configuration and schedules a session on the links'
// (possibly shared) engine, beginning at the engine's current time. The
// caller drives the engine; the session reports completion via
// Config.OnDone and Done. Deadline and MaxBuffer et al. are interpreted in
// session time, so staggered arrivals need no config adjustments. It is
// Pool.Start on a Pool of its own.
func Start(videoLink, audioLink *netsim.Link, cfg Config) (*Session, error) {
	return new(Pool).Start(videoLink, audioLink, cfg)
}

// Pool recycles what finished requests and sessions leave behind for the
// sessions started through it. Request records, with their callbacks
// bound, and the buffer fold's sample arrays go back to the pool as each
// session lets go of them. Whole sessions go back at Release, or as
// Pool.Run returns: the Session object with its bound method values, its
// Result's logs (emptied, keeping their capacity), its windowed-mode
// decision map, its transport connections and its blacklist, all of which
// the next Start reuses.
//
// A fleet shard state keeps one Pool for all its cells, across Runs, and
// releases it at the end of each streaming cell, so a warm session
// rebuilds none of these; core.Play keeps one for its Pool.Run calls. A
// Pool is used by one goroutine only: every session started through it
// must run on engines that goroutine drives. The zero Pool is ready to
// use.
type Pool struct {
	// reqs and mins are what a running session draws on and returns to:
	// request records and the buffer fold's sample arrays.
	reqs []*request
	mins [][]float64
	// started lists the sessions started since the last Release, and free
	// the released ones Start reuses.
	started []*Session
	free    []*Session
}

// takeMins returns an empty sample array with room for n samples: the
// last one the pool took back when it is large enough, else a new one.
func (p *Pool) takeMins(n int) []float64 {
	if k := len(p.mins); k > 0 {
		m := p.mins[k-1]
		p.mins[k-1] = nil
		p.mins = p.mins[:k-1]
		if cap(m) >= n {
			return m
		}
	}
	return make([]float64, 0, n)
}

// Start is the package-level Start, drawing on p: the session runs on a
// Session object an earlier session left at Release when there is one.
// Its results are the same either way; a refused start changes nothing.
func (p *Pool) Start(videoLink, audioLink *netsim.Link, cfg Config) (*Session, error) {
	var s *Session
	if k := len(p.free); k > 0 {
		s = p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
	} else {
		ps := new(pooledSession)
		s = &ps.Session
		s.spare = &ps.spare
	}
	if err := s.start(videoLink, audioLink, cfg, p); err != nil {
		p.free = append(p.free, s) // it scheduled nothing
		return nil, err
	}
	p.started = append(p.started, s)
	return s, nil
}

// Run starts a session through p, runs the links' engine until it drains,
// and writes the session's Result to res, which is the caller's from then
// on: it shares no storage with anything a later session writes. The
// finished Session object goes back to p, like a released one, for the
// next Start to reuse. A session that cannot finish (e.g. the link is dead
// forever) gives Ended == false and a nil error; exhausting the event
// budget an error, and then the object is not reused.
func (p *Pool) Run(videoLink, audioLink *netsim.Link, cfg Config, res *Result) error {
	s, err := p.Start(videoLink, audioLink, cfg)
	if err != nil {
		return err
	}
	k := len(p.started) - 1
	p.started[k] = nil
	p.started = p.started[:k]
	if err := s.eng.Run(s.cfg.MaxEvents); err != nil {
		return err
	}
	s.handOver(res)
	if s.Done() && s.eng.Pending() == 0 {
		// Release's conditions: nothing left queued can fire into the
		// object's next session.
		p.recycle(s)
	}
	return nil
}

// Release hands every session started through p since the last Release
// back to p, for later Starts to reuse. Call it only once the engines that
// ran them have drained, and only when nothing will read those sessions'
// Results again: each Result becomes a later session's. The drained engine
// matters because a finished session's logging tick and voided timers
// stay queued until the engine reaches them; released earlier, they would
// fire into the object's next session. Release therefore panics if any of
// those sessions is still running or its engine still has events pending.
func (p *Pool) Release() {
	for _, s := range p.started {
		if !s.Done() {
			panic("player: Pool.Release with a session still running")
		}
	}
	for _, s := range p.started {
		if n := s.eng.Pending(); n > 0 {
			panic(fmt.Sprintf("player: Pool.Release with %d events pending on a session's engine", n))
		}
	}
	for _, s := range p.started {
		p.recycle(s)
	}
	p.Disown()
}

// Disown lets go of every session started through p since the last
// Release without taking it back: the Session objects, with the Results
// in them, stay their callers', and no later Start reuses them. A caller
// that keeps those Results calls it before it uses p again.
func (p *Pool) Disown() {
	clear(p.started)
	p.started = p.started[:0]
}

// recycle puts s, finished and its Result no longer read, on p.free for a
// later Start. s drops everything it held of its last session's caller
// (the config with its model, content and recorder, the links, and the
// recorder its connections log to), so a free Session pins none of it.
func (p *Pool) recycle(s *Session) {
	s.clean()
	for _, c := range s.spare.conns {
		if c != nil {
			c.SetRecorder(nil)
		}
	}
	p.free = append(p.free, s)
}

// start builds and schedules a session on s, drawing on p. s is new, or a
// Session an earlier session finished on: start resets every field but
// the method values already bound and the spare parts, so both kinds start
// in the same state. Every check comes before the first side effect.
func (s *Session) start(videoLink, audioLink *netsim.Link, cfg Config, p *Pool) error {
	if err := cfg.setDefaults(); err != nil {
		return err
	}
	if videoLink.Engine() != audioLink.Engine() {
		return errors.New("player: video and audio links use different engines")
	}
	var joint abr.JointAlgorithm
	var perType abr.PerTypeAlgorithm
	switch m := cfg.Model.(type) {
	case abr.JointAlgorithm:
		joint = m
	case abr.PerTypeAlgorithm:
		perType = m
	default:
		return fmt.Errorf("player: model %q implements neither JointAlgorithm nor PerTypeAlgorithm", cfg.Model.Name())
	}
	if cfg.Muxed && joint == nil {
		return errors.New("player: muxed mode requires a JointAlgorithm")
	}
	if cfg.Muxed && (cfg.FaultPlan != nil || cfg.Robustness != nil) {
		return errors.New("player: fault injection and robustness policy require demuxed mode")
	}
	if len(cfg.AudioResets) > 0 && !cfg.supportsAudioReset(joint != nil) {
		return errors.New("player: AudioResets require a per-type model, SyncWindow > 0, or Muxed mode")
	}
	if (joint != nil || cfg.Muxed) && !cfg.Content.Aligned() {
		// Joint scheduling and muxed packaging pair audio with video by
		// chunk index; that is only meaningful when both timelines share
		// their boundaries. Per-type models handle misaligned content.
		return errors.New("player: joint scheduling and muxed mode require aligned audio/video chunk timelines")
	}
	s.clean()
	s.cfg, s.eng, s.pool = cfg, videoLink.Engine(), p
	s.joint, s.perType = joint, perType
	s.t0 = s.eng.Now()
	s.links[media.Video] = videoLink
	s.links[media.Audio] = audioLink
	s.abandoner, _ = cfg.Model.(abr.Abandoner)
	sp := s.spare
	if cfg.Robustness != nil {
		sp.policy = cfg.Robustness.WithDefaults()
		s.pol = &sp.policy
		if sp.blacklist == nil {
			sp.blacklist = faults.NewBlacklist()
		} else {
			sp.blacklist.Reset()
		}
		s.blacklist = sp.blacklist
		if s.pol.RequestTimeout > 0 {
			s.timeoutLane = s.eng.Lane(s.pol.RequestTimeout)
		}
	}
	s.rec = cfg.Recorder
	if cfg.FaultPlan != nil {
		for _, w := range cfg.FaultPlan.Blackouts {
			videoLink.AddOutage(s.t0+w.Start, s.t0+w.End)
			if audioLink != videoLink {
				audioLink.AddOutage(s.t0+w.Start, s.t0+w.End)
			}
		}
	}
	if tc := cfg.Transport; tc != nil {
		switch {
		case cfg.Muxed, tc.Protocol != netsim.H1 && videoLink == audioLink:
			// Muxed: one combined object per chunk, so a single connection
			// carries the whole session regardless of protocol. H2/H3
			// multiplex both streams on one connection — the shared
			// congestion window the HoL coupling models.
			c := s.conn(0, videoLink, tc, "conn")
			s.conns[media.Video], s.conns[media.Audio] = c, c
		default:
			// HTTP/1.1 serializes requests per connection (and split hosts
			// cannot share one): each stream owns a connection that pays
			// its own handshakes and idles out on its own — the demux
			// request-doubling pathology at the transport layer.
			s.conns[media.Video] = s.conn(0, videoLink, tc, "conn-v")
			s.conns[media.Audio] = s.conn(1, audioLink, tc, "conn-a")
		}
	}
	s.res = Result{
		ModelName:       cfg.Model.Name(),
		ContentDuration: s.cfg.Content.Duration,
		Stalls:          sp.stalls,
		Abandonments:    sp.abandons,
		AudioResets:     sp.resets,
		Faults:          sp.faults,
		Failovers:       sp.failovers,
	}
	s.paired = s.joint != nil && (cfg.SyncWindow == 0 || cfg.Muxed)
	if s.paired && s.jointLoop == nil {
		s.jointLoop, s.jointCont = s.fetchJoint, s.jointChunkDone
	}
	if !s.paired && s.streamLoop[media.Video] == nil {
		for _, t := range []media.Type{media.Video, media.Audio} {
			s.streamLoop[t] = func() { s.fetchStream(t) }
			s.streamCont[t] = func() { s.streamDone(t) }
		}
	}
	if !s.paired && s.joint != nil {
		if sp.comboFor == nil {
			sp.comboFor = make(map[int]media.Combo)
		}
		clear(sp.comboFor)
		s.comboFor = sp.comboFor
	}
	if s.logTick == nil {
		s.logTick, s.underrunTick = s.logTimeline, s.onUnderrun
	}
	if cfg.Live != nil {
		s.initLive()
	}
	// Size the chunk log, the buffer fold and the timeline for a session
	// that plays the rest of the content with little stalling, so that a
	// warm chunk request and logging tick append without growing them.
	c := s.cfg.Content
	s.res.Chunks = reuse(sp.chunks, c.NumChunksOf(media.Video)-s.next[media.Video]+c.NumChunksOf(media.Audio)-s.next[media.Audio])
	samples := int((c.Duration - s.playPos) / logInterval)
	samples += samples/32 + 2
	s.res.buffers.mins = s.pool.takeMins(samples)
	if cfg.KeepTimeline {
		s.res.Timeline = reuse(sp.timeline, samples)
	}

	// Kick off downloading and timeline logging.
	s.eng.Schedule(s.eng.Now(), s.loop(media.Video))
	if !s.paired {
		s.eng.Schedule(s.eng.Now(), s.loop(media.Audio))
	}
	s.logLane = s.eng.Lane(logInterval)
	s.scheduleLog()
	for _, at := range cfg.AudioResets {
		s.eng.Schedule(s.t0+at, func() { s.resetAudio(at) })
	}
	return nil
}

// clean resets every field of s but its spare parts and the method values
// an earlier session bound on it.
func (s *Session) clean() {
	*s = Session{
		spare:        s.spare,
		jointLoop:    s.jointLoop,
		jointCont:    s.jointCont,
		streamLoop:   s.streamLoop,
		streamCont:   s.streamCont,
		logTick:      s.logTick,
		underrunTick: s.underrunTick,
	}
}

// loop returns the function that re-enters stream t's fetch loop.
func (s *Session) loop(t media.Type) func() {
	if s.paired {
		return s.jointLoop
	}
	return s.streamLoop[t]
}

// reuse returns spare, emptied, when it has room for n entries, else a new
// empty slice with room for n.
func reuse[T any](spare []T, n int) []T {
	if spare != nil && cap(spare) >= n {
		return spare[:0]
	}
	return make([]T, 0, n)
}

// conn returns the session's i-th transport connection, on l: the one an
// earlier session on this Session object made, reset as new, or a new one.
func (s *Session) conn(i int, l *netsim.Link, tc *netsim.TransportConfig, label string) *netsim.Conn {
	sp := s.spare
	c := sp.conns[i]
	if c == nil {
		c = netsim.NewConn(l, *tc, label)
		sp.conns[i] = c
	} else {
		c.Reuse(l, *tc, label)
	}
	c.SetRecorder(s.rec)
	return c
}

// Result returns the session's recorded timeline; complete once Done. A
// session keeps it only until Pool.Release hands the object back to its
// Pool.
func (s *Session) Result() *Result { return &s.res }

// Done reports whether the session has finished or aborted.
func (s *Session) Done() bool { return s.ended }

// rel converts an absolute engine time to session time.
func (s *Session) rel(t time.Duration) time.Duration { return t - s.t0 }

// --- Playback ---------------------------------------------------------

// playPosAt returns the playback position at time now. Live sessions play
// at the catch-up controller's rate; VOD always at 1.0 (the branch is
// guarded so the VOD path computes exactly what it always did).
func (s *Session) playPosAt(now time.Duration) time.Duration {
	if s.playing {
		elapsed := now - s.lastTick
		if s.live != nil && s.live.rate != 100 {
			elapsed = time.Duration(float64(elapsed) * s.live.rateF())
		}
		return s.playPos + elapsed
	}
	return s.playPos
}

// syncPlay folds elapsed playing time into playPos.
func (s *Session) syncPlay(now time.Duration) {
	s.playPos = s.playPosAt(now)
	s.lastTick = now
}

func (s *Session) minFrontier() time.Duration {
	if s.frontier[media.Video] < s.frontier[media.Audio] {
		return s.frontier[media.Video]
	}
	return s.frontier[media.Audio]
}

// bufferOf returns the buffered duration of one type at time now.
func (s *Session) bufferOf(t media.Type, now time.Duration) time.Duration {
	b := s.frontier[t] - s.playPosAt(now)
	if b < 0 {
		b = 0
	}
	return b
}

// onFrontierAdvance reacts to new downloaded content: start playback, resume
// from a stall, and keep the underrun alarm accurate.
func (s *Session) onFrontierAdvance() {
	now := s.eng.Now()
	needed := func(threshold time.Duration) time.Duration {
		// Near the end of the content the full threshold may exceed what
		// remains; require only the remainder.
		remaining := s.cfg.Content.Duration - s.playPosAt(now)
		if threshold > remaining {
			return remaining
		}
		return threshold
	}
	if !s.started {
		if s.minFrontier()-s.playPos >= needed(s.cfg.StartupBuffer) {
			s.started = true
			s.playing = true
			s.lastTick = now
			s.res.StartupDelay = s.rel(now)
			s.rec.Emit(timeline.Event{
				At: now, Dur: s.rel(now), Kind: timeline.Startup, Index: -1,
				VideoBuf: s.bufferOf(media.Video, now),
				AudioBuf: s.bufferOf(media.Audio, now),
			})
			s.rescheduleUnderrun()
		}
		return
	}
	if !s.playing && !s.ended {
		if s.minFrontier()-s.playPos >= needed(s.cfg.ResumeBuffer) {
			if now > s.stallAt {
				s.res.Stalls = append(s.res.Stalls, Stall{Start: s.rel(s.stallAt), End: s.rel(now)})
				s.rec.Emit(timeline.Event{
					At: now, Dur: now - s.stallAt, Kind: timeline.StallEnd, Index: -1,
					VideoBuf: s.bufferOf(media.Video, now),
					AudioBuf: s.bufferOf(media.Audio, now),
				})
			}
			s.playing = true
			s.lastTick = now
			s.rescheduleUnderrun()
		}
		return
	}
	if s.playing {
		s.rescheduleUnderrun()
	}
}

// rescheduleUnderrun arms the alarm for the instant playback catches up with
// the downloaded frontier (a stall) or reaches the end of the content.
func (s *Session) rescheduleUnderrun() {
	s.eng.Cancel(s.underrun)
	s.underrun = netsim.Handle{}
	if !s.playing || s.ended {
		return
	}
	now := s.eng.Now()
	target := s.minFrontier()
	if target > s.cfg.Content.Duration {
		target = s.cfg.Content.Duration
	}
	remaining := target - s.playPosAt(now)
	if s.live != nil && s.live.rate != 100 {
		// Wall time to play the remaining media at the current rate.
		remaining = time.Duration(float64(remaining) / s.live.rateF())
	}
	at := now + remaining
	if at < now {
		at = now
	}
	s.underrun = s.eng.Schedule(at, s.underrunTick)
}

func (s *Session) onUnderrun() {
	s.underrun = netsim.Handle{}
	now := s.eng.Now()
	s.syncPlay(now)
	if s.live != nil && s.cfg.Content.Duration-s.playPos < time.Microsecond {
		// Rate-scaled clock arithmetic rounds at nanosecond granularity;
		// snap sub-microsecond remainders so a live session's final alarm
		// still reaches the end of the content.
		s.playPos = s.cfg.Content.Duration
	}
	if s.playPos >= s.cfg.Content.Duration {
		s.finish(now)
		return
	}
	// Ran out of one (or both) buffers: stall.
	s.playing = false
	s.stallAt = now
	s.rec.Emit(timeline.Event{
		At: now, Kind: timeline.StallStart, Index: -1,
		VideoBuf: s.bufferOf(media.Video, now),
		AudioBuf: s.bufferOf(media.Audio, now),
	})
}

func (s *Session) finish(now time.Duration) {
	s.ended = true
	s.playing = false
	s.res.Ended = true
	s.res.EndedAt = s.rel(now)
	s.logSample(now)
	s.rec.Emit(timeline.Event{At: now, Kind: timeline.SessionEnd, Index: -1, Detail: "ended"})
	s.teardown()
	if s.cfg.OnDone != nil {
		s.cfg.OnDone(s)
	}
}

// teardown releases everything the session holds on the shared engine and
// links: in-flight transfers are cancelled (freeing bottleneck capacity
// for other sessions), pending per-type timers are voided via the
// generation counters, and the underrun alarm is disarmed. The buffer
// fold is sealed behind the last sample. After teardown the session
// schedules nothing further.
func (s *Session) teardown() {
	for t := range s.current {
		s.cancelStream(media.Type(t))
	}
	s.eng.Cancel(s.underrun)
	s.underrun = netsim.Handle{}
	s.collectTransport()
	s.collectLive()
	s.pool.mins = append(s.pool.mins, s.res.buffers.seal())
	s.keepLogs()
}

// keepLogs gives the Result's logs to spare, for the next session on this
// Session object to append into once the Result is no longer read (see
// Pool.Release). A log left empty becomes nil, as a log that was never
// appended to is, so a reused log cannot show in the Result.
func (s *Session) keepLogs() {
	sp, r := s.spare, &s.res
	sp.chunks = r.Chunks[:0]
	if r.Timeline != nil {
		sp.timeline = r.Timeline[:0]
	}
	keepLog(&r.Stalls, &sp.stalls)
	keepLog(&r.Abandonments, &sp.abandons)
	keepLog(&r.AudioResets, &sp.resets)
	keepLog(&r.Faults, &sp.faults)
	keepLog(&r.Failovers, &sp.failovers)
}

// keepLog stashes *log's backing array in *spare, unless it has none, and
// makes an empty *log nil.
func keepLog[T any](log, spare *[]T) {
	if cap(*log) > 0 {
		*spare = (*log)[:0]
	}
	if len(*log) == 0 {
		*log = nil
	}
}

// handOver copies the session's Result to res for a caller that keeps it
// while later sessions reuse s, and takes out of the spare parts whatever
// res then shares: the chunk log and the timeline leave the spare, the
// next session making new ones, and the other logs, which few sessions
// fill, are copied at their length, so the spare keeps their capacity.
// The transport and live summaries, which live in the spare, are copied.
func (s *Session) handOver(res *Result) {
	sp := s.spare
	*res = s.res
	sp.chunks = nil
	if res.Timeline != nil {
		sp.timeline = nil
	}
	res.Stalls = slices.Clone(res.Stalls)
	res.Abandonments = slices.Clone(res.Abandonments)
	res.AudioResets = slices.Clone(res.AudioResets)
	res.Faults = slices.Clone(res.Faults)
	res.Failovers = slices.Clone(res.Failovers)
	if res.Transport != nil {
		ts := *res.Transport
		res.Transport = &ts
	}
	if res.Live != nil {
		ls := *res.Live
		res.Live = &ls
	}
}

// collectTransport folds the connections' accounting into the result. An
// all-zero accounting — a transport that never charged anything, e.g.
// handshakes zeroed for the transport-off equivalence gate — reports
// nothing, keeping transport-inert runs byte-identical to transport-free
// ones.
func (s *Session) collectTransport() {
	cv, ca := s.conns[media.Video], s.conns[media.Audio]
	if cv == nil && ca == nil {
		return
	}
	var st netsim.ConnStats
	var proto netsim.Protocol
	if cv != nil {
		st.Add(cv.Stats())
		proto = cv.Protocol()
	}
	if ca != nil && ca != cv {
		st.Add(ca.Stats())
		proto = ca.Protocol()
	}
	if st == (netsim.ConnStats{}) {
		return
	}
	ts := &s.spare.transport // the connections made spare
	*ts = TransportStats{Protocol: proto.String(), ConnStats: st}
	s.res.Transport = ts
}

// --- Timeline logging --------------------------------------------------

func (s *Session) scheduleLog() { s.logLane.Add(s.logTick) }

// logTimeline is the periodic logging tick: it enforces the deadline,
// logs one sample and re-arms.
func (s *Session) logTimeline() {
	if s.ended {
		return
	}
	now := s.eng.Now()
	if s.rel(now) >= s.cfg.Deadline {
		// Session is not making it to the end; abort without marking
		// playback complete.
		s.abort(fmt.Sprintf("deadline %v reached before playback finished", s.cfg.Deadline))
		return
	}
	s.logSample(now)
	s.scheduleLog()
}

// logSample folds the tick's buffer levels into the buffer metrics. Only
// when a log is kept or a recorder listens does it read the rest of the
// sample, the bandwidth estimate included, and hand that one value to both.
func (s *Session) logSample(now time.Duration) {
	video, audio := s.bufferOf(media.Video, now), s.bufferOf(media.Audio, now)
	s.res.buffers.add(video, audio)
	if !s.cfg.KeepTimeline && !s.rec.Enabled() {
		return
	}
	sample := Sample{
		At:          s.rel(now),
		PlayPos:     s.playPosAt(now),
		VideoBuffer: video,
		AudioBuffer: audio,
		Video:       s.lastSel[media.Video],
		Audio:       s.lastSel[media.Audio],
		Stalled:     s.started && !s.playing && !s.ended,
	}
	if br, ok := s.cfg.Model.(abr.BandwidthReporter); ok {
		sample.Estimate, sample.EstimateOK = br.BandwidthEstimate()
	}
	if s.cfg.KeepTimeline {
		s.res.Timeline = append(s.res.Timeline, sample)
	}
	if s.rec.Enabled() {
		ev := timeline.Event{
			At: now, Kind: timeline.Buffer, Index: -1,
			VideoBuf: sample.VideoBuffer,
			AudioBuf: sample.AudioBuffer,
		}
		if sample.EstimateOK {
			ev.Rate = sample.Estimate.Kbps()
		}
		s.rec.Emit(ev)
	}
}

// --- Decision state ----------------------------------------------------

// emitDecision records one ABR selection with the buffer levels and
// bandwidth estimate that drove it. Callers guard with s.rec.Enabled()
// before building the track string.
func (s *Session) emitDecision(typ, track string, idx int, now time.Duration) {
	ev := timeline.Event{
		At:       now,
		Kind:     timeline.Decision,
		Type:     typ,
		Track:    track,
		Index:    idx,
		VideoBuf: s.bufferOf(media.Video, now),
		AudioBuf: s.bufferOf(media.Audio, now),
	}
	if br, ok := s.cfg.Model.(abr.BandwidthReporter); ok {
		if est, estOK := br.BandwidthEstimate(); estOK {
			ev.Rate = est.Kbps()
		}
	}
	s.rec.Emit(ev)
}

func (s *Session) state(chunkIdx int) abr.State {
	now := s.eng.Now()
	st := abr.State{
		Now:           s.rel(now),
		PlayPos:       s.playPosAt(now),
		VideoBuffer:   s.bufferOf(media.Video, now),
		AudioBuffer:   s.bufferOf(media.Audio, now),
		ChunkIndex:    chunkIdx,
		ChunkDuration: s.cfg.Content.ChunkDuration,
		Startup:       !s.started,
		LastVideo:     s.lastSel[media.Video],
		LastAudio:     s.lastSel[media.Audio],
	}
	if s.live != nil {
		st.Latency = s.liveLatency(now)
		st.LatencyTarget = s.live.cfg.LatencyTarget
		st.PlaybackRate = s.live.rateF()
	}
	return st
}

// --- Downloading: the fetch loops ----------------------------------------

// mayFetch is the gate every fetch loop passes before requesting chunk idx
// of stream t: live availability, then the buffer cap. When the chunk may
// not be requested yet it arms the loop's wake-up and reports false. The
// paired loop gates on the fuller buffer: both buffers advance together
// and the playhead drains them equally, so min==max except for in-flight
// skew.
func (s *Session) mayFetch(t media.Type, idx int, now time.Duration) bool {
	if s.live != nil {
		if at := s.chunkAvailableAt(t, idx); at > now {
			s.liveWakeAt(t, at)
			return false
		}
	}
	gate := s.bufferOf(t, now)
	if s.paired {
		if b := s.bufferOf(media.Audio, now); b > gate {
			gate = b
		}
	}
	if gate >= s.cfg.MaxBuffer {
		// Wake when the buffer has drained just below the cap.
		s.eng.Schedule(now+(gate-s.cfg.MaxBuffer)+time.Millisecond, s.loop(t))
		return false
	}
	return true
}

// decideCombo asks the joint model for position idx's combination and
// records the decision.
func (s *Session) decideCombo(idx int, now time.Duration) media.Combo {
	combo := s.joint.SelectCombo(s.state(idx))
	if combo.Video == nil || combo.Audio == nil {
		panic(fmt.Sprintf("player: model %q returned incomplete combo %v", s.joint.Name(), combo))
	}
	if s.rec.Enabled() {
		s.emitDecision("combo", combo.Video.ID+"+"+combo.Audio.ID, idx, now)
	}
	return combo
}

// fetchJoint drives the paired loop (strict chunk pairing, or muxed
// objects): decide a combination for chunk `next`, download audio and
// video together, then advance.
func (s *Session) fetchJoint() {
	if s.ended || s.jointPending > 0 {
		return
	}
	idx := s.next[media.Video] // both types share the index when paired
	if idx >= s.cfg.Content.NumChunksOf(media.Video) {
		return
	}
	now := s.eng.Now()
	if !s.mayFetch(media.Video, idx, now) {
		return
	}
	combo := s.decideCombo(idx, now)
	s.lastSel[media.Video] = combo.Video
	s.lastSel[media.Audio] = combo.Audio
	if s.cfg.Muxed {
		s.jointPending = 1
		s.startRequest(media.Video, idx, combo.Video, combo.Audio, 0, s.jointCont)
		return
	}
	s.jointPending = 2
	s.startRequest(media.Video, idx, combo.Video, nil, 0, s.jointCont)
	s.startRequest(media.Audio, idx, combo.Audio, nil, 0, s.jointCont)
}

func (s *Session) jointChunkDone() {
	s.jointPending--
	if s.jointPending == 0 {
		s.next[media.Video]++
		s.next[media.Audio]++
		s.fetchJoint()
	}
}

// fetchStream runs stream t's own loop. A per-type model decides each
// chunk alone. A joint model with a skew bound (SyncWindow > 0) decides
// each position's combination once, by whichever stream reaches it first,
// and a stream may lead the other by at most SyncWindow positions.
// inflight[t] keeps the stream to one request chain however often the
// loop is re-entered (wake-ups, resets, resyncs, the other stream).
func (s *Session) fetchStream(t media.Type) {
	if s.ended || s.inflight[t] {
		return
	}
	idx := s.next[t]
	if idx >= s.cfg.Content.NumChunksOf(t) {
		return
	}
	// Skew bound: wait for the other stream (its completion re-kicks us).
	if s.joint != nil && idx-s.next[otherType(t)] > s.cfg.SyncWindow {
		return
	}
	now := s.eng.Now()
	if !s.mayFetch(t, idx, now) {
		return
	}
	var track *media.Track
	if s.joint != nil {
		combo, ok := s.comboFor[idx]
		if !ok {
			combo = s.decideCombo(idx, now)
			s.comboFor[idx] = combo
			delete(s.comboFor, idx-2*s.cfg.SyncWindow-2) // bound the map
		}
		track = combo.Video
		if t == media.Audio {
			track = combo.Audio
		}
	} else {
		track = s.perType.SelectTrack(t, s.state(idx))
		if track == nil || track.Type != t {
			panic(fmt.Sprintf("player: model %q returned bad track for %s", s.perType.Name(), t))
		}
		if s.rec.Enabled() {
			s.emitDecision(t.String(), track.ID, idx, now)
		}
	}
	s.lastSel[t] = track
	s.inflight[t] = true
	s.startRequest(t, idx, track, nil, 0, s.streamCont[t])
}

// streamDone is stream t's continuation: the chunk is in, so the chain
// ends and the loop moves to the next position.
func (s *Session) streamDone(t media.Type) {
	s.inflight[t] = false
	s.next[t]++
	s.fetchStream(t)
	if s.joint != nil {
		s.fetchStream(otherType(t)) // it may have been skew-blocked on us
	}
}

func otherType(t media.Type) media.Type {
	if t == media.Audio {
		return media.Video
	}
	return media.Audio
}

// cancelStream ends stream t's request chain wherever it stands: the
// generation bump voids its pending retry and timeout timers, and an
// in-flight transfer is cancelled, freeing its share of the link. It
// returns the bytes that transfer had already moved.
func (s *Session) cancelStream(t media.Type) float64 {
	s.gen[t]++
	s.inflight[t] = false
	var moved float64
	if r := s.current[t]; r != nil && !r.tr.Completed() {
		r.refs++ // the cancel may deliver a completion that lets go of r
		moved = r.tr.Done()
		r.cancelWire()
		r.unref()
	}
	s.setCurrent(t, nil)
	return moved
}

// --- Mid-session audio reset (language switch) ---------------------------

// resetAudio discards the buffered audio (or, in muxed mode, both streams)
// beyond the playback position and restarts fetching from there, recording
// the waste.
func (s *Session) resetAudio(at time.Duration) {
	if s.ended {
		return
	}
	now := s.eng.Now()
	playPos := s.playPosAt(now)
	// First chunk whose start is at or past the playhead: the partially
	// played chunk keeps playing; everything after it is refetched. Each
	// type resolves the position on its own timeline (shaped content can
	// have misaligned audio/video boundaries).
	refetchFrom := func(t media.Type) int {
		starts := s.cfg.Content.ChunkTimeline(t)
		idx := 0
		for idx < len(starts)-1 && starts[idx] < playPos {
			idx++
		}
		return idx
	}
	idx := refetchFrom(media.Audio)
	rec := AudioReset{At: s.rel(now), RefetchFrom: idx}

	discard := func(t media.Type) {
		tIdx := refetchFrom(t)
		rec.DiscardedBytes += int64(s.cancelStream(t))
		for _, ch := range s.res.Chunks {
			if ch.Type == t && ch.Index >= tIdx {
				rec.DiscardedBytes += ch.Bytes
				rec.DiscardedSeconds += s.cfg.Content.ChunkDurationOf(t, ch.Index)
			}
		}
		if s.next[t] > tIdx {
			s.next[t] = tIdx
		}
		if start := s.cfg.Content.ChunkTimeline(t)[tIdx]; s.frontier[t] > start {
			s.frontier[t] = start
		}
	}

	discard(media.Audio)
	if s.cfg.Muxed {
		discard(media.Video)
		s.jointPending = 0
	}
	// Drop cached joint decisions for refetched positions so the model
	// re-decides them (a language switch changes the allowed pairings).
	for k := range s.comboFor {
		if k >= idx {
			delete(s.comboFor, k)
		}
	}
	s.res.AudioResets = append(s.res.AudioResets, rec)
	s.rec.Emit(timeline.Event{
		At: now, Kind: timeline.AudioReset, Index: rec.RefetchFrom,
		Bytes: rec.DiscardedBytes,
	})
	s.rescheduleUnderrun()
	switch {
	case s.paired:
		s.fetchJoint()
	case s.joint != nil:
		s.fetchStream(media.Audio)
		s.fetchStream(media.Video) // skew bound may have shifted
	default:
		s.fetchStream(media.Audio)
	}
}

// --- The request path -----------------------------------------------------

// request is one wire attempt at one chunk: every chunk request, demuxed
// or muxed, first try or retry, goes through it. Its methods are the
// transfer's callbacks and the request's timers.
//
// Records are recycled through the session's freelist with their
// callbacks bound once, so they are reference counted: each holder below
// owns one reference, and the record (with its transfer, see
// netsim.Transfer.Release) goes back to the freelist when the last is
// dropped. The holders are the code that created it until that code
// returns (startRequest) or hands it to a timer (retryAfter); each
// pending timer bound to it (retry start, fail-fast, timeout); its
// transfer while that can still call back (wire); and the session while
// it is the type's current request. A timer's reference, and the wire
// reference in onComplete, hold the record until its callback returns.
type request struct {
	s     *Session
	t     media.Type
	idx   int
	track *media.Track
	// muxedWith is the audio part of a muxed object (track is the video
	// part); nil for a demuxed request.
	muxedWith *media.Track
	attempt   int
	// fault is the fault plan's draw for this attempt; faulted reports
	// that the body fails (a migration delays it but delivers it).
	fault   faults.Fault
	faulted bool
	// gen is the stream's generation when the request was made: a reset
	// or resync that bumps it voids the request's pending timers.
	gen       int
	decidedAt time.Duration
	tr        *netsim.Transfer
	timeout   netsim.Handle
	// then is the loop's continuation, run once the chunk is downloaded.
	then func()

	refs int
	wire bool // tr may still call onComplete or onSample
	cb   requestCallbacks
}

// requestCallbacks are a record's method values, bound when the record is
// first made and kept across reuse.
type requestCallbacks struct {
	retry, failFast, onTimeout func()
	onComplete                 func(*netsim.Transfer)
	onSample                   func(*netsim.Transfer, float64, time.Duration)
}

// newRequest takes a record from the pool, or makes one, for an attempt
// at chunk idx of stream t, and binds it to s. The caller owns its first
// reference.
func (s *Session) newRequest(t media.Type, idx int, track, muxedWith *media.Track, attempt int, then func()) *request {
	var r *request
	if k := len(s.pool.reqs); k > 0 {
		r = s.pool.reqs[k-1]
		s.pool.reqs[k-1] = nil
		s.pool.reqs = s.pool.reqs[:k-1]
	} else {
		r = &request{}
		r.cb = requestCallbacks{
			retry: r.retry, failFast: r.failFast, onTimeout: r.onTimeout,
			onComplete: r.onComplete, onSample: r.onSample,
		}
	}
	r.s, r.t, r.idx, r.track, r.muxedWith, r.attempt, r.gen, r.then = s, t, idx, track, muxedWith, attempt, s.gen[t], then
	r.refs = 1
	return r
}

// recycleRequests is a test seam: false leaves unreferenced records and
// their transfers to the GC instead of reusing them, so differential tests
// can check that recycling never changes a session.
var recycleRequests = true

// unref drops one reference; the last one returns the record to the
// session's pool and releases its transfer to the link.
func (r *request) unref() {
	r.refs--
	if r.refs > 0 || !recycleRequests {
		return
	}
	pool := r.s.pool
	if r.tr != nil {
		r.tr.Release()
	}
	*r = request{cb: r.cb}
	pool.reqs = append(pool.reqs, r)
}

// setCurrent makes r (nil for none) stream t's current request.
func (s *Session) setCurrent(t media.Type, r *request) {
	old := s.current[t]
	if r != nil {
		r.refs++
	}
	s.current[t] = r
	if old != nil {
		old.unref()
	}
}

// cancelWire cancels r's transfer. Once it is off the wire it calls r
// back no more, so the wire reference goes; a cancel that completes the
// transfer at this very instant has run onComplete, which dropped it.
func (r *request) cancelWire() {
	r.s.links[r.t].Cancel(r.tr)
	if r.wire && r.tr.Cancelled() {
		r.wire = false
		r.unref()
	}
}

// startRequest makes the first attempt at a chunk.
func (s *Session) startRequest(t media.Type, idx int, track, muxedWith *media.Track, attempt int, then func()) {
	r := s.newRequest(t, idx, track, muxedWith, attempt, then)
	r.start()
	r.unref()
}

// retryAfter schedules another attempt at r's chunk, on track, after d.
// The new record's first reference passes to the timer.
func (r *request) retryAfter(d time.Duration, track *media.Track, attempt int) {
	next := r.s.newRequest(r.t, r.idx, track, nil, attempt, r.then)
	r.s.eng.After(d, next.cb.retry)
}

// retry is the backoff timer set by retryAfter.
func (r *request) retry() {
	r.start()
	r.unref()
}

// stale reports that the session ended or the stream's generation moved
// since the request was made (a reset discarded the chunk it refers to).
func (r *request) stale() bool { return r.s.ended || r.s.gen[r.t] != r.gen }

// event is a request-lifecycle timeline event naming the request. Muxed
// objects are one flow, typed "muxed" and named by both tracks.
func (r *request) event(kind timeline.Kind, at time.Duration) timeline.Event {
	ev := timeline.Event{At: at, Kind: kind, Type: r.t.String(), Track: r.track.ID, Index: r.idx, Attempt: r.attempt}
	if r.muxedWith != nil {
		ev.Type = "muxed"
		ev.Track = r.track.ID + "+" + r.muxedWith.ID
	}
	return ev
}

// startWire puts one request on the wire, through the stream's transport
// connection when one is configured.
func (s *Session) startWire(t media.Type, size int64, opts netsim.StartOptions) *netsim.Transfer {
	if c := s.conns[t]; c != nil {
		return c.Start(size, opts)
	}
	return s.links[t].Start(size, opts)
}

// start issues the request: failover away from a blacklisted track, the
// fault draw, then the transfer and its timeout.
func (r *request) start() {
	s := r.s
	if r.stale() {
		return
	}
	t := r.t
	now := s.eng.Now()
	// A robust client never issues a request to a blacklisted track: the
	// model's selection is substituted with the nearest healthy neighbour.
	if s.pol != nil && s.blacklist.Blocked(r.track.ID, now) {
		if repl := s.failoverTrack(t, r.track); repl != nil && repl != r.track {
			s.recordFailover(t, r.idx, r.track, repl, now)
			r.track = repl
			r.attempt = 0
		}
	}
	size := s.cfg.Content.ChunkSize(r.track, r.idx)
	if r.muxedWith != nil {
		size += s.cfg.Content.ChunkSize(r.muxedWith, r.idx)
	} else if s.rec.Enabled() {
		ev := r.event(timeline.Request, now)
		ev.Bytes = size
		s.rec.Emit(ev)
	}
	r.fault, r.faulted = s.cfg.FaultPlan.SegmentFault(r.track.ID, r.idx, r.attempt)
	if r.faulted && s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At:      now,
			Kind:    timeline.FaultInjected,
			Track:   r.track.ID,
			Index:   r.idx,
			Attempt: r.attempt,
			Detail:  r.fault.Kind.String(),
		})
	}
	// transportDelay is extra pre-byte latency charged by the transport
	// (currently only QUIC path validation after a migration fault).
	var transportDelay time.Duration
	if r.faulted {
		switch r.fault.Kind {
		case faults.HTTP404, faults.HTTP503:
			// Fail fast after the request round trip; no bytes move, so
			// the model's estimator sees nothing.
			r.refs++
			s.eng.After(s.links[t].RTT, r.cb.failFast)
			return
		case faults.Timeout:
			// The response never arrives. With no timeout policy the
			// request hangs until the session Deadline kills the run;
			// with one, it fails at RequestTimeout.
			if s.pol == nil {
				r.recordFault(r.fault.Kind, 0)
				return
			}
			r.refs++
			s.eng.After(s.pol.RequestTimeout, r.cb.failFast)
			return
		case faults.HandshakeFail:
			// The connection attempt dies in setup: its round trips are
			// wasted, no bytes move, and the next attempt starts on a
			// cold connection. Without a transport the cost degenerates
			// to the bare request round trip.
			d := s.links[t].RTT
			if c := s.conns[t]; c != nil {
				d = c.FailHandshake()
			}
			r.refs++
			s.eng.After(d, r.cb.failFast)
			return
		case faults.Migration:
			// Not a failure: the network path changed under the client.
			// QUIC keeps the connection and pays one path-validation
			// round trip on this request; TCP tears down and reconnects
			// (the handshake is charged when the request dispatches).
			// The body arrives intact.
			if c := s.conns[t]; c != nil {
				transportDelay = c.Migrate()
			}
			r.faulted = false
		}
		// Reset / Truncate: a fraction of the body arrives, then the
		// connection dies — a partial transfer whose completion is the
		// failure instant. The arrived bytes still inform the estimator.
	}
	wireSize := size
	if r.faulted {
		wireSize = int64(float64(size) * r.fault.Fraction)
	}
	r.decidedAt = now
	s.cfg.Model.OnStart(abr.TransferInfo{
		Type: t,
		At:   s.rel(now),
	})
	// Progress samples arrive every δ (§3.3): byte-flow meters
	// (ExoPlayer's, the best-practice shared meter) and Shaka's sampler
	// both consume them.
	opts := netsim.StartOptions{
		Label:       t.String(),
		SampleEvery: estimator.ShakaSampleInterval,
		OnSample:    r.cb.onSample,
		OnComplete:  r.cb.onComplete,
	}
	if r.muxedWith != nil {
		opts.Label = "muxed"
	}
	if s.cfg.OnRequest != nil {
		opts.ExtraDelay = s.cfg.OnRequest(ChunkRequest{
			Index: r.idx, Type: t, Track: r.track, MuxedWith: r.muxedWith, Attempt: r.attempt,
		})
	}
	if r.muxedWith != nil && s.rec.Enabled() {
		// A muxed object's Request event follows the edge hook, so the
		// cache outcome the hook records comes first.
		ev := r.event(timeline.Request, now)
		ev.Bytes = size
		s.rec.Emit(ev)
	}
	opts.ExtraDelay += transportDelay
	r.tr = s.startWire(t, wireSize, opts)
	r.wire = true
	r.refs++
	s.setCurrent(t, r)
	// Per-request timeout: a transfer stuck behind an outage (or just too
	// slow) is cancelled and handed to the failure path.
	if s.timeoutLane != nil {
		r.refs++
		r.timeout = s.timeoutLane.Add(r.cb.onTimeout)
	}
}

// onComplete is the transfer's completion: a faulted body fails the
// attempt, a whole one advances the stream. The transfer calls back no
// more, and its wire reference holds r until the callback returns.
func (r *request) onComplete(tr *netsim.Transfer) {
	r.wire = false
	r.complete(tr)
	r.unref()
}

func (r *request) complete(tr *netsim.Transfer) {
	s := r.s
	if s.ended {
		return // teardown raced this completion on a shared engine
	}
	if r.timeout.Pending() {
		s.eng.Cancel(r.timeout)
		r.timeout = netsim.Handle{}
		r.unref()
	}
	t := r.t
	done := s.eng.Now()
	if r.faulted {
		s.closePartial(t, tr, done)
		// The connection died with the body (RST or early close): tear it
		// down so the retry pays a fresh setup — full handshake on H1/H2,
		// 0-RTT resumption on H3.
		if r.fault.Kind == faults.Reset || r.fault.Kind == faults.Truncate {
			if c := s.conns[t]; c != nil {
				c.Reset()
			}
		}
		s.failChunk(r, r.fault.Kind, int64(tr.Done()))
		return
	}
	if s.pol != nil {
		s.blacklist.Clear(r.track.ID)
	}
	if s.rec.Enabled() {
		ev := r.event(timeline.RequestDone, done)
		ev.Dur = done - tr.Started()
		ev.Bytes = tr.Size()
		s.rec.Emit(ev)
	}
	end := s.cfg.Content.ChunkTimeline(t)[r.idx+1]
	s.frontier[t] = end
	chunk := ChunkDecision{
		Index:       r.idx,
		Type:        t,
		Track:       r.track,
		DecidedAt:   s.rel(r.decidedAt),
		CompletedAt: s.rel(done),
		Bytes:       tr.Size(),
	}
	if r.muxedWith == nil {
		s.res.Chunks = append(s.res.Chunks, chunk)
	} else {
		// The object carried both components; log each at its own size.
		s.frontier[media.Audio] = end // muxed requires aligned timelines
		audio := chunk
		chunk.Bytes = s.cfg.Content.ChunkSize(r.track, r.idx)
		audio.Type, audio.Track, audio.Bytes = media.Audio, r.muxedWith, s.cfg.Content.ChunkSize(r.muxedWith, r.idx)
		s.res.Chunks = append(s.res.Chunks, chunk, audio)
	}
	s.cfg.Model.OnComplete(abr.TransferInfo{
		Type:     t,
		Bytes:    float64(tr.Size()),
		Duration: tr.Duration(),
		At:       s.rel(done),
	})
	s.onFrontierAdvance()
	r.then()
}

// onSample is the transfer's δ-progress callback: the model sees the
// bytes, and a demuxed request whose body is healthy may be abandoned.
func (r *request) onSample(tr *netsim.Transfer, bytes float64, interval time.Duration) {
	s := r.s
	if s.ended {
		return
	}
	s.cfg.Model.OnProgress(abr.TransferInfo{
		Type:     r.t,
		Bytes:    bytes,
		Duration: interval,
		At:       s.rel(s.eng.Now()),
	})
	if !r.faulted && r.muxedWith == nil {
		r.maybeAbandon(tr)
	}
}

// onTimeout is the per-request timeout firing; the timer's reference
// holds r until it returns.
func (r *request) onTimeout() {
	r.timeout = netsim.Handle{}
	r.timedOut()
	r.unref()
}

func (r *request) timedOut() {
	s := r.s
	tr := r.tr
	// Drop if the session ended, a reset discarded the stream, the
	// transfer was abandoned-and-replaced (it is no longer the type's
	// current transfer), it completed, or it was cancelled. The Cancelled
	// check is load-bearing: an abandoned transfer's replacement request
	// can fail fast (404/503/hung response) without starting a transfer,
	// which leaves s.current[t] still pointing at the abandoned one —
	// without the check this stale timer would time out the abandoned
	// attempt and fork a second retry chain for the same chunk,
	// double-counting the retry and eventually calling the chunk's
	// completion continuation twice.
	if r.stale() || s.current[r.t] != r || tr.Completed() || tr.Cancelled() {
		return
	}
	r.cancelWire()
	if tr.Completed() {
		return // the last byte arrived at this very instant
	}
	done := s.eng.Now()
	s.closePartial(r.t, tr, done)
	if s.rec.Enabled() {
		ev := r.event(timeline.RequestTimeout, done)
		ev.Bytes = int64(tr.Done())
		s.rec.Emit(ev)
	}
	s.failChunk(r, faults.Timeout, int64(tr.Done()))
}

// failFast fails an attempt that put no transfer on the wire (an error
// response, a hung response under a timeout policy, a failed handshake).
// The timer's reference holds r until it returns.
func (r *request) failFast() {
	if !r.stale() {
		r.s.failChunk(r, r.fault.Kind, 0)
	}
	r.unref()
}

// closePartial closes the model's view of a transfer that ended early (a
// faulted body, a timeout, an abandonment) with what actually moved.
func (s *Session) closePartial(t media.Type, tr *netsim.Transfer, now time.Duration) {
	s.cfg.Model.OnComplete(abr.TransferInfo{
		Type:     t,
		Bytes:    tr.Done(),
		Duration: now - tr.Started(),
		At:       s.rel(now),
	})
}

// maybeAbandon consults the model's abandonment rule for an in-flight
// chunk; a replacement track cancels the transfer and refetches the chunk.
func (r *request) maybeAbandon(tr *netsim.Transfer) {
	s := r.s
	if s.abandoner == nil || tr.Completed() {
		return
	}
	t := r.t
	now := s.eng.Now()
	repl := s.abandoner.Abandon(abr.DownloadProgress{
		Type:       t,
		Track:      r.track,
		ChunkIndex: r.idx,
		BytesDone:  tr.Done(),
		BytesTotal: tr.Size(),
		Elapsed:    now - tr.Started(),
		Buffer:     s.bufferOf(t, now),
		Attempt:    r.attempt,
	})
	if repl == nil || repl == r.track {
		return
	}
	if repl.Type != t {
		panic(fmt.Sprintf("player: model %q abandoned to a %s track for a %s download", s.cfg.Model.Name(), repl.Type, t))
	}
	r.cancelWire()
	s.closePartial(t, tr, now)
	s.res.Abandonments = append(s.res.Abandonments, Abandonment{
		Index: r.idx, Type: t, From: r.track, To: repl, At: s.rel(now),
	})
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.Abandon, Type: t.String(),
			Track: repl.ID, Index: r.idx, Detail: r.track.ID,
			Bytes: int64(tr.Done()),
		})
	}
	s.lastSel[t] = repl
	// The replacement displaces r as the stream's current request, which
	// can recycle r: this is the last use of it.
	s.startRequest(t, r.idx, repl, nil, r.attempt+1, r.then)
}

// --- Failure handling: retries, blacklisting, failover -------------------

// recordFault appends one failure event to the result.
func (r *request) recordFault(kind faults.Kind, wasted int64) {
	s := r.s
	s.res.Faults = append(s.res.Faults, FaultEvent{
		Index: r.idx, Type: r.t, Track: r.track, Kind: kind,
		Attempt: r.attempt, At: s.rel(s.eng.Now()), WastedBytes: wasted,
	})
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: s.eng.Now(), Kind: timeline.RequestFailed, Type: r.t.String(),
			Track: r.track.ID, Index: r.idx, Attempt: r.attempt,
			Detail: kind.String(), Bytes: wasted,
		})
	}
}

// recordFailover logs one substitution of a failing track and makes the
// substitute the stream's current selection.
func (s *Session) recordFailover(t media.Type, idx int, from, to *media.Track, now time.Duration) {
	s.res.Failovers = append(s.res.Failovers, Failover{Index: idx, Type: t, From: from, To: to, At: s.rel(now)})
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.Failover, Type: t.String(),
			Track: to.ID, Index: idx, Detail: from.ID,
		})
	}
	s.lastSel[t] = to
}

// failChunk is the load-error handler. Without a policy the session
// aborts (the pre-robustness behaviour). With one, the failed track is
// struck, the download retried with seeded exponential backoff while the
// attempt budget lasts, and failed over to the nearest healthy track once
// it is spent — the other media type keeps streaming throughout.
func (s *Session) failChunk(r *request, kind faults.Kind, wasted int64) {
	if s.ended {
		return
	}
	t, idx, track := r.t, r.idx, r.track
	r.recordFault(kind, wasted)
	if s.pol == nil {
		s.abort(fmt.Sprintf("chunk %d %s %s failed (%s) with no retry policy", idx, t, track.ID, kind))
		return
	}
	now := s.eng.Now()
	key := faults.Key(s.retrySeed(), track.ID, idx)
	blocked := s.blacklist.Strike(track.ID, now, *s.pol)
	if blocked && s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.Blacklist, Type: t.String(),
			Track: track.ID, Index: idx,
		})
	}
	if !blocked && r.attempt+1 < s.pol.MaxAttempts {
		s.res.Retries++
		if s.rec.Enabled() {
			s.rec.Emit(timeline.Event{
				At: now, Kind: timeline.Retry, Type: t.String(),
				Track: track.ID, Index: idx, Attempt: r.attempt + 1,
			})
		}
		r.retryAfter(s.pol.Backoff(r.attempt, key), track, r.attempt+1)
		return
	}
	repl := s.failoverTrack(t, track)
	if repl == nil {
		// Single-track ladder: the only option is the one that failed.
		repl = track
	}
	if repl != track {
		s.recordFailover(t, idx, track, repl, now)
	}
	s.res.Retries++
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.Retry, Type: t.String(),
			Track: repl.ID, Index: idx,
		})
	}
	r.retryAfter(s.pol.Backoff(r.attempt, key), repl, 0)
}

// failoverTrack picks the substitute for a failing track by the shared
// rule (faults.Blacklist.Failover), else (everything exiled) the cheapest
// track of the type — a robust client keeps trying rather than giving up.
func (s *Session) failoverTrack(t media.Type, failed *media.Track) *media.Track {
	ladder := s.cfg.Content.VideoTracks
	if t == media.Audio {
		ladder = s.cfg.Content.AudioTracks
	}
	if repl := s.blacklist.Failover(ladder, failed, s.eng.Now()); repl != nil {
		return repl
	}
	cheapest := ladder[0]
	for _, tr := range ladder[1:] {
		if tr.AvgBitrate < cheapest.AvgBitrate {
			cheapest = tr
		}
	}
	return cheapest
}

// retrySeed keys the backoff jitter; sharing the fault plan's seed keeps
// one knob controlling all injected randomness.
func (s *Session) retrySeed() int64 {
	if p := s.cfg.FaultPlan; p != nil {
		return p.Seed
	}
	return 1
}

// abort ends the session without marking playback complete.
func (s *Session) abort(reason string) {
	s.res.Aborted = true
	s.res.AbortReason = reason
	s.ended = true
	s.playing = false
	s.logSample(s.eng.Now())
	s.rec.Emit(timeline.Event{At: s.eng.Now(), Kind: timeline.SessionEnd, Index: -1, Detail: reason})
	s.teardown()
	if s.cfg.OnDone != nil {
		s.cfg.OnDone(s)
	}
}
