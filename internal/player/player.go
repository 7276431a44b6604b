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
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/timeline"
)

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
	// SampleInterval is the δ-interval of progress events to the algorithm.
	// Byte-flow meters (ExoPlayer's, the best-practice shared meter) and
	// Shaka's sampler both consume these. Zero selects the default 125 ms;
	// negative disables progress events.
	SampleInterval time.Duration
	// LogInterval is the timeline sampling period. Default 500 ms.
	LogInterval time.Duration
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
	// torn down. Sessions started via Run/RunSplit stop the engine here;
	// fleet sessions sharing an engine let it keep running.
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
	if c.LogInterval == 0 {
		c.LogInterval = 500 * time.Millisecond
	}
	switch {
	case c.SampleInterval == 0:
		c.SampleInterval = 125 * time.Millisecond
	case c.SampleInterval < 0:
		c.SampleInterval = 0
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
// CDN edge). Start creates and schedules one; Run/RunSplit wrap a single
// session with its own engine run loop.
//
// All times recorded in the Result, and all times reported to the ABR
// model, are session-relative (zero at Start), so a session's behaviour is
// invariant to its arrival time in a fleet.
type Session struct {
	cfg     Config
	eng     *netsim.Engine
	links   [2]*netsim.Link // per media.Type; both entries equal on a shared bottleneck
	content *media.Content
	t0      time.Duration // engine time at Start; all recorded times are relative to it

	joint     abr.JointAlgorithm
	perType   abr.PerTypeAlgorithm
	abandoner abr.Abandoner

	// Per-type chunk timelines, indexed by media.Type. For content without
	// boundary tables both entries are identical; shaped content can give
	// audio and video different chunk counts and edges (the misalignment
	// regime of §4), which is why every index computation below is typed.
	numChunks   [2]int
	chunkStarts [2][]time.Duration // start offset of each chunk; [n] = duration

	// Per-type download state, indexed by media.Type.
	next     [2]int           // next chunk index to fetch
	frontier [2]time.Duration // contiguous downloaded content end
	lastSel  [2]*media.Track

	// Joint scheduling state.
	jointPending int                 // transfers in flight for the current chunk
	comboFor     map[int]media.Combo // windowed mode: joint decision per position
	inflight     [2]bool             // windowed mode: per-type transfer in flight
	transfers    [2]*netsim.Transfer // most recent in-flight transfer per type
	conns        [2]*netsim.Conn     // transport connections; both entries equal when multiplexed

	// Robustness state.
	pol       *faults.Policy // normalized policy; nil = fail fast
	blacklist *faults.Blacklist
	gen       [2]int // per-type generation; bumped on reset to void stale retry timers

	// plan is the effective fault plan: cfg.FaultPlan, or (when recording)
	// a copy of it with the flight recorder's Observe hook attached.
	plan *faults.Plan
	// rec is the flight recorder; nil when disabled.
	rec *timeline.Recorder

	// Playback state.
	started  bool
	playing  bool
	ended    bool
	playPos  time.Duration
	lastTick time.Duration
	underrun *netsim.Event
	stallAt  time.Duration

	// live is the latency-target controller state; nil for VOD sessions
	// (every live hook on the playback clock and the fetch loops is
	// guarded on it, so VOD behaviour is bit-identical to pre-live code).
	live *liveState

	// logTick is the timeline-logging tick, bound once in Start so the
	// periodic re-arm allocates no closure.
	logTick func()

	res Result
}

// Run executes a full streaming session of cfg.Content over the link and
// returns the recorded result. A session that cannot finish (e.g. the link
// is dead forever) returns a result with Ended == false and a nil error;
// exhausting the event budget returns an error.
func Run(link *netsim.Link, cfg Config) (*Result, error) {
	return RunSplit(link, link, cfg)
}

// RunSplit executes a session with the video and audio streams on separate
// links — the §4.1 scenario where the demuxed tracks live on different
// servers and do not share a bottleneck. Both links must be driven by the
// same engine. It is a thin wrapper over Start that owns the engine's run
// loop and stops it when the session ends.
func RunSplit(videoLink, audioLink *netsim.Link, cfg Config) (*Result, error) {
	inner := cfg.OnDone
	cfg.OnDone = func(s *Session) {
		if inner != nil {
			inner(s)
		}
		s.eng.Stop()
	}
	s, err := Start(videoLink, audioLink, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.eng.Run(s.cfg.MaxEvents); err != nil {
		return nil, err
	}
	return &s.res, nil
}

// Start validates the configuration and schedules a session on the links'
// (possibly shared) engine, beginning at the engine's current time. The
// caller drives the engine; the session reports completion via
// Config.OnDone and Done. Deadline and MaxBuffer et al. are interpreted in
// session time, so staggered arrivals need no config adjustments.
func Start(videoLink, audioLink *netsim.Link, cfg Config) (*Session, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if videoLink.Engine() != audioLink.Engine() {
		return nil, errors.New("player: video and audio links use different engines")
	}
	s := &Session{
		cfg:     cfg,
		eng:     videoLink.Engine(),
		content: cfg.Content,
	}
	s.t0 = s.eng.Now()
	s.links[media.Video] = videoLink
	s.links[media.Audio] = audioLink
	switch m := cfg.Model.(type) {
	case abr.JointAlgorithm:
		s.joint = m
	case abr.PerTypeAlgorithm:
		s.perType = m
	default:
		return nil, fmt.Errorf("player: model %q implements neither JointAlgorithm nor PerTypeAlgorithm", cfg.Model.Name())
	}
	s.abandoner, _ = cfg.Model.(abr.Abandoner)
	if cfg.Muxed && s.joint == nil {
		return nil, errors.New("player: muxed mode requires a JointAlgorithm")
	}
	if cfg.Muxed && (cfg.FaultPlan != nil || cfg.Robustness != nil) {
		return nil, errors.New("player: fault injection and robustness policy require demuxed mode")
	}
	if cfg.Robustness != nil {
		pol := cfg.Robustness.WithDefaults()
		s.pol = &pol
		s.blacklist = faults.NewBlacklist()
	}
	s.rec = cfg.Recorder
	s.plan = cfg.FaultPlan
	if s.rec.Enabled() && cfg.FaultPlan != nil {
		// Observe positive fault decisions through a session-local copy so
		// shared plans stay untouched; the copy draws identically.
		plan := *cfg.FaultPlan
		plan.Observe = func(trackID string, idx, attempt int, f faults.Fault) {
			s.rec.Emit(timeline.Event{
				At:      s.eng.Now(),
				Kind:    timeline.FaultInjected,
				Track:   trackID,
				Index:   idx,
				Attempt: attempt,
				Detail:  f.Kind.String(),
			})
		}
		s.plan = &plan
	}
	if cfg.FaultPlan != nil {
		for _, w := range cfg.FaultPlan.Blackouts {
			videoLink.AddOutage(s.t0+w.Start, s.t0+w.End)
			if audioLink != videoLink {
				audioLink.AddOutage(s.t0+w.Start, s.t0+w.End)
			}
		}
	}
	if len(cfg.AudioResets) > 0 && !cfg.supportsAudioReset(s.joint != nil) {
		return nil, errors.New("player: AudioResets require a per-type model, SyncWindow > 0, or Muxed mode")
	}
	if cfg.Transport != nil {
		tc := *cfg.Transport
		mk := func(l *netsim.Link, label string) *netsim.Conn {
			c := netsim.NewConn(l, tc, label)
			c.SetRecorder(s.rec)
			return c
		}
		switch {
		case cfg.Muxed:
			// One combined object per chunk: a single connection carries
			// the whole session regardless of protocol.
			c := mk(videoLink, "conn")
			s.conns[media.Video], s.conns[media.Audio] = c, c
		case tc.Protocol != netsim.H1 && videoLink == audioLink:
			// H2/H3 multiplex both streams on one connection — the shared
			// congestion window the HoL coupling models.
			c := mk(videoLink, "conn")
			s.conns[media.Video], s.conns[media.Audio] = c, c
		default:
			// HTTP/1.1 serializes requests per connection (and split hosts
			// cannot share one): each stream owns a connection that pays
			// its own handshakes and idles out on its own — the demux
			// request-doubling pathology at the transport layer.
			s.conns[media.Video] = mk(videoLink, "conn-v")
			s.conns[media.Audio] = mk(audioLink, "conn-a")
		}
	}
	if (s.joint != nil || cfg.Muxed) && !s.content.Aligned() {
		// Joint scheduling and muxed packaging pair audio with video by
		// chunk index; that is only meaningful when both timelines share
		// their boundaries. Per-type models handle misaligned content.
		return nil, errors.New("player: joint scheduling and muxed mode require aligned audio/video chunk timelines")
	}
	for _, t := range []media.Type{media.Video, media.Audio} {
		s.numChunks[t] = s.content.NumChunksOf(t)
		s.chunkStarts[t] = make([]time.Duration, s.numChunks[t]+1)
		for i := 0; i < s.numChunks[t]; i++ {
			s.chunkStarts[t][i+1] = s.chunkStarts[t][i] + s.content.ChunkDurationOf(t, i)
		}
	}
	s.res = Result{
		ModelName:       cfg.Model.Name(),
		ContentDuration: s.content.Duration,
	}
	if cfg.Live != nil {
		if err := s.initLive(); err != nil {
			return nil, err
		}
	}

	// Kick off downloading and timeline logging.
	if s.joint != nil {
		if cfg.SyncWindow > 0 && !cfg.Muxed {
			s.comboFor = make(map[int]media.Combo)
			s.eng.Schedule(s.eng.Now(), func() { s.fetchWindowed(media.Video) })
			s.eng.Schedule(s.eng.Now(), func() { s.fetchWindowed(media.Audio) })
		} else {
			s.eng.Schedule(s.eng.Now(), s.fetchJoint)
		}
	} else {
		s.eng.Schedule(s.eng.Now(), func() { s.fetchIndependent(media.Video) })
		s.eng.Schedule(s.eng.Now(), func() { s.fetchIndependent(media.Audio) })
	}
	s.logTick = s.logTimeline
	s.scheduleLog()
	for _, at := range cfg.AudioResets {
		at := at
		s.eng.Schedule(s.t0+at, func() { s.resetAudio(at) })
	}
	return s, nil
}

// Result returns the session's recorded timeline; complete once Done.
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
		remaining := s.content.Duration - s.playPosAt(now)
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
	if s.underrun != nil {
		s.eng.Cancel(s.underrun)
		s.underrun = nil
	}
	if !s.playing || s.ended {
		return
	}
	now := s.eng.Now()
	target := s.minFrontier()
	if target > s.content.Duration {
		target = s.content.Duration
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
	s.underrun = s.eng.Schedule(at, s.onUnderrun)
}

func (s *Session) onUnderrun() {
	s.underrun = nil
	now := s.eng.Now()
	s.syncPlay(now)
	if s.live != nil && s.content.Duration-s.playPos < time.Microsecond {
		// Rate-scaled clock arithmetic rounds at nanosecond granularity;
		// snap sub-microsecond remainders so a live session's final alarm
		// still reaches the end of the content.
		s.playPos = s.content.Duration
	}
	if s.playPos >= s.content.Duration {
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
// generation counters, and the underrun alarm is disarmed. After teardown
// the session schedules nothing further.
func (s *Session) teardown() {
	for t := range s.transfers {
		s.gen[t]++
		if tr := s.transfers[t]; tr != nil && !tr.Completed() {
			s.links[t].Cancel(tr)
		}
		s.transfers[t] = nil
	}
	if s.underrun != nil {
		s.eng.Cancel(s.underrun)
		s.underrun = nil
	}
	s.collectTransport()
	s.collectLive()
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
	s.res.Transport = &TransportStats{
		Protocol:         proto.String(),
		Handshakes:       st.Handshakes,
		Resumes:          st.Resumes,
		FailedHandshakes: st.FailedHandshakes,
		Migrations:       st.Migrations,
		HoLStalls:        st.HoLStalls,
		HandshakeWait:    st.HandshakeWait,
		HoLWait:          st.HoLWait,
	}
}

// --- Timeline logging --------------------------------------------------

func (s *Session) scheduleLog() { s.eng.After(s.cfg.LogInterval, s.logTick) }

// logTimeline is the periodic logging tick: it enforces the deadline,
// records one timeline sample and re-arms.
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

func (s *Session) logSample(now time.Duration) {
	sample := Sample{
		At:          s.rel(now),
		PlayPos:     s.playPosAt(now),
		VideoBuffer: s.bufferOf(media.Video, now),
		AudioBuffer: s.bufferOf(media.Audio, now),
		Video:       s.lastSel[media.Video],
		Audio:       s.lastSel[media.Audio],
		Stalled:     s.started && !s.playing && !s.ended,
	}
	if br, ok := s.cfg.Model.(abr.BandwidthReporter); ok {
		sample.Estimate, sample.EstimateOK = br.BandwidthEstimate()
	}
	s.res.Timeline = append(s.res.Timeline, sample)
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
		ChunkDuration: s.content.ChunkDuration,
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

// --- Downloading: joint (chunk-synced) ----------------------------------

// fetchJoint drives the chunk-synced loop: decide a combination for chunk
// `next`, download audio and video together, then advance.
func (s *Session) fetchJoint() {
	if s.ended || s.jointPending > 0 {
		return
	}
	idx := s.next[media.Video] // both types share the index in joint mode
	if idx >= s.numChunks[media.Video] {
		return
	}
	now := s.eng.Now()
	if s.live != nil {
		if at := s.chunkAvailableAt(media.Video, idx); at > now {
			s.liveWakeAt(liveWakeJoint, at, s.fetchJoint)
			return
		}
	}
	// Gate on the fuller buffer: in synced mode both buffers advance
	// together, but the playhead drains them equally, so min==max except
	// for in-flight skew.
	gate := s.bufferOf(media.Video, now)
	if b := s.bufferOf(media.Audio, now); b > gate {
		gate = b
	}
	if gate >= s.cfg.MaxBuffer {
		// Wake when the buffer has drained just below the cap.
		s.eng.Schedule(now+(gate-s.cfg.MaxBuffer)+time.Millisecond, s.fetchJoint)
		return
	}
	combo := s.joint.SelectCombo(s.state(idx))
	if combo.Video == nil || combo.Audio == nil {
		panic(fmt.Sprintf("player: model %q returned incomplete combo %v", s.joint.Name(), combo))
	}
	if s.rec.Enabled() {
		s.emitDecision("combo", combo.Video.ID+"+"+combo.Audio.ID, idx, now)
	}
	s.lastSel[media.Video] = combo.Video
	s.lastSel[media.Audio] = combo.Audio
	if s.cfg.Muxed {
		s.jointPending = 1
		s.startMuxedChunk(idx, combo, func() { s.jointChunkDone() })
		return
	}
	s.jointPending = 2
	s.startChunk(media.Video, idx, combo.Video, 0, func() { s.jointChunkDone() })
	s.startChunk(media.Audio, idx, combo.Audio, 0, func() { s.jointChunkDone() })
}

// startMuxedChunk downloads one combined audio+video object. Observer
// events carry the video type (the muxed stream is one flow).
func (s *Session) startMuxedChunk(idx int, combo media.Combo, then func()) {
	size := s.content.ChunkSize(combo.Video, idx) + s.content.ChunkSize(combo.Audio, idx)
	now := s.eng.Now()
	decidedAt := now
	link := s.links[media.Video]
	s.cfg.Model.OnStart(abr.TransferInfo{
		Type:       media.Video,
		At:         s.rel(now),
		Concurrent: link.ActiveTransfers() + 1,
	})
	opts := netsim.StartOptions{
		Label: "muxed",
		OnComplete: func(tr *netsim.Transfer) {
			if s.ended {
				return // teardown raced this completion on a shared engine
			}
			done := s.eng.Now()
			if s.rec.Enabled() {
				s.rec.Emit(timeline.Event{
					At:    done,
					Dur:   done - tr.Started(),
					Kind:  timeline.RequestDone,
					Type:  "muxed",
					Track: combo.Video.ID + "+" + combo.Audio.ID,
					Index: idx,
					Bytes: tr.Size(),
				})
			}
			s.frontier[media.Video] = s.chunkStarts[media.Video][idx+1]
			s.frontier[media.Audio] = s.chunkStarts[media.Video][idx+1] // muxed requires aligned timelines
			s.res.Chunks = append(s.res.Chunks,
				ChunkDecision{Index: idx, Type: media.Video, Track: combo.Video, DecidedAt: s.rel(decidedAt), CompletedAt: s.rel(done), Bytes: s.content.ChunkSize(combo.Video, idx)},
				ChunkDecision{Index: idx, Type: media.Audio, Track: combo.Audio, DecidedAt: s.rel(decidedAt), CompletedAt: s.rel(done), Bytes: s.content.ChunkSize(combo.Audio, idx)},
			)
			s.cfg.Model.OnComplete(abr.TransferInfo{
				Type:       media.Video,
				Bytes:      float64(tr.Size()),
				Duration:   tr.Duration(),
				At:         s.rel(done),
				Concurrent: link.ActiveTransfers() + 1,
			})
			s.onFrontierAdvance()
			then()
		},
	}
	if s.cfg.SampleInterval > 0 {
		opts.SampleEvery = s.cfg.SampleInterval
		opts.OnSample = func(tr *netsim.Transfer, bytes float64, interval time.Duration) {
			if s.ended {
				return
			}
			s.cfg.Model.OnProgress(abr.TransferInfo{
				Type:       media.Video,
				Bytes:      bytes,
				Duration:   interval,
				At:         s.rel(s.eng.Now()),
				Concurrent: link.ActiveTransfers(),
			})
		}
	}
	if s.cfg.OnRequest != nil {
		opts.ExtraDelay = s.cfg.OnRequest(ChunkRequest{
			Index: idx, Type: media.Video, Track: combo.Video, MuxedWith: combo.Audio,
		})
	}
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At:    now,
			Kind:  timeline.Request,
			Type:  "muxed",
			Track: combo.Video.ID + "+" + combo.Audio.ID,
			Index: idx,
			Bytes: size,
		})
	}
	s.transfers[media.Video] = s.startWire(media.Video, size, opts)
}

func (s *Session) jointChunkDone() {
	s.jointPending--
	if s.jointPending == 0 {
		s.next[media.Video]++
		s.next[media.Audio]++
		s.fetchJoint()
	}
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
		idx := 0
		for idx < s.numChunks[t] && s.chunkStarts[t][idx] < playPos {
			idx++
		}
		return idx
	}
	idx := refetchFrom(media.Audio)
	rec := AudioReset{At: s.rel(now), RefetchFrom: idx}

	discard := func(t media.Type) {
		tIdx := refetchFrom(t)
		// Void pending retry/timeout timers for this stream: they refer to
		// chunks the reset may be discarding.
		s.gen[t]++
		if tr := s.transfers[t]; tr != nil && !tr.Completed() {
			rec.DiscardedBytes += int64(tr.Done())
			s.links[t].Cancel(tr)
			s.transfers[t] = nil
			s.inflight[t] = false
		}
		for _, ch := range s.res.Chunks {
			if ch.Type == t && ch.Index >= tIdx {
				rec.DiscardedBytes += ch.Bytes
				rec.DiscardedSeconds += s.content.ChunkDurationOf(t, ch.Index)
			}
		}
		if s.next[t] > tIdx {
			s.next[t] = tIdx
		}
		if s.frontier[t] > s.chunkStarts[t][tIdx] {
			s.frontier[t] = s.chunkStarts[t][tIdx]
		}
	}

	if s.cfg.Muxed {
		discard(media.Audio)
		discard(media.Video)
		s.jointPending = 0
		s.res.AudioResets = append(s.res.AudioResets, rec)
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.AudioReset, Index: rec.RefetchFrom,
			Bytes: rec.DiscardedBytes,
		})
		s.rescheduleUnderrun()
		s.fetchJoint()
		return
	}
	discard(media.Audio)
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
	if s.perType != nil {
		s.fetchIndependent(media.Audio)
	} else {
		s.fetchWindowed(media.Audio)
		s.fetchWindowed(media.Video) // skew bound may have shifted
	}
}

// --- Downloading: joint with bounded skew (SyncWindow > 0) ---------------

// fetchWindowed runs one stream's loop under the skew bound: a stream may
// lead the other by at most SyncWindow chunk positions. The combination is
// still decided jointly, once per position, by whichever stream reaches it
// first.
func (s *Session) fetchWindowed(t media.Type) {
	if s.ended || s.inflight[t] {
		return
	}
	idx := s.next[t]
	if idx >= s.numChunks[t] {
		return
	}
	other := media.Audio
	if t == media.Audio {
		other = media.Video
	}
	// Skew bound: wait for the other stream (its completion re-kicks us).
	if idx-s.next[other] > s.cfg.SyncWindow {
		return
	}
	now := s.eng.Now()
	if s.live != nil {
		if at := s.chunkAvailableAt(t, idx); at > now {
			s.liveWakeAt(liveWakeSlot(t), at, func() { s.fetchWindowed(t) })
			return
		}
	}
	if b := s.bufferOf(t, now); b >= s.cfg.MaxBuffer {
		s.eng.Schedule(now+(b-s.cfg.MaxBuffer)+time.Millisecond, func() { s.fetchWindowed(t) })
		return
	}
	combo, ok := s.comboFor[idx]
	if !ok {
		combo = s.joint.SelectCombo(s.state(idx))
		if combo.Video == nil || combo.Audio == nil {
			panic(fmt.Sprintf("player: model %q returned incomplete combo %v", s.joint.Name(), combo))
		}
		if s.rec.Enabled() {
			s.emitDecision("combo", combo.Video.ID+"+"+combo.Audio.ID, idx, now)
		}
		s.comboFor[idx] = combo
		delete(s.comboFor, idx-2*s.cfg.SyncWindow-2) // bound the map
	}
	track := combo.Video
	if t == media.Audio {
		track = combo.Audio
	}
	s.lastSel[t] = track
	s.inflight[t] = true
	s.startChunk(t, idx, track, 0, func() {
		s.inflight[t] = false
		s.next[t]++
		s.fetchWindowed(t)
		s.fetchWindowed(other) // it may have been skew-blocked on us
	})
}

// --- Downloading: independent per-type loops ----------------------------

func (s *Session) fetchIndependent(t media.Type) {
	if s.ended {
		return
	}
	idx := s.next[t]
	if idx >= s.numChunks[t] {
		return
	}
	now := s.eng.Now()
	if s.live != nil {
		if at := s.chunkAvailableAt(t, idx); at > now {
			s.liveWakeAt(liveWakeSlot(t), at, func() { s.fetchIndependent(t) })
			return
		}
	}
	if b := s.bufferOf(t, now); b >= s.cfg.MaxBuffer {
		s.eng.Schedule(now+(b-s.cfg.MaxBuffer)+time.Millisecond, func() { s.fetchIndependent(t) })
		return
	}
	track := s.perType.SelectTrack(t, s.state(idx))
	if track == nil || track.Type != t {
		panic(fmt.Sprintf("player: model %q returned bad track for %s", s.perType.Name(), t))
	}
	if s.rec.Enabled() {
		s.emitDecision(t.String(), track.ID, idx, now)
	}
	s.lastSel[t] = track
	s.startChunk(t, idx, track, 0, func() {
		s.next[t]++
		s.fetchIndependent(t)
	})
}

// --- Transfer plumbing ---------------------------------------------------

// startWire puts one request on the wire, through the stream's transport
// connection when one is configured.
func (s *Session) startWire(t media.Type, size int64, opts netsim.StartOptions) *netsim.Transfer {
	if c := s.conns[t]; c != nil {
		return c.Start(size, opts)
	}
	return s.links[t].Start(size, opts)
}

func (s *Session) startChunk(t media.Type, idx int, track *media.Track, attempt int, then func()) {
	if s.ended {
		return
	}
	now := s.eng.Now()
	// A robust client never issues a request to a blacklisted track: the
	// model's selection is substituted with the nearest healthy neighbour.
	if s.pol != nil && s.blacklist.Blocked(track.ID, now) {
		if repl := s.failoverTrack(t, track); repl != nil && repl != track {
			s.res.Failovers = append(s.res.Failovers, Failover{Index: idx, Type: t, From: track, To: repl, At: s.rel(now)})
			if s.rec.Enabled() {
				s.rec.Emit(timeline.Event{
					At: now, Kind: timeline.Failover, Type: t.String(),
					Track: repl.ID, Index: idx, Detail: track.ID,
				})
			}
			s.lastSel[t] = repl
			track = repl
			attempt = 0
		}
	}
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.Request, Type: t.String(),
			Track: track.ID, Index: idx, Attempt: attempt,
			Bytes: s.content.ChunkSize(track, idx),
		})
	}
	var fault faults.Fault
	faulted := false
	if s.plan != nil {
		fault, faulted = s.plan.SegmentFault(track.ID, idx, attempt)
	}
	// transportDelay is extra pre-byte latency charged by the transport
	// (currently only QUIC path validation after a migration fault).
	var transportDelay time.Duration
	if faulted {
		switch fault.Kind {
		case faults.HTTP404, faults.HTTP503:
			// Fail fast after the request round trip; no bytes move, so
			// the model's estimator sees nothing.
			s.afterGuarded(t, s.links[t].RTT, func() {
				s.failChunk(t, idx, track, attempt, fault.Kind, 0, then)
			})
			return
		case faults.Timeout:
			// The response never arrives. With no timeout policy the
			// request hangs until the session Deadline kills the run;
			// with one, it fails at RequestTimeout.
			if s.pol == nil {
				s.recordFault(t, idx, track, attempt, fault.Kind, 0)
				return
			}
			s.afterGuarded(t, s.pol.RequestTimeout, func() {
				s.failChunk(t, idx, track, attempt, fault.Kind, 0, then)
			})
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
			s.afterGuarded(t, d, func() {
				s.failChunk(t, idx, track, attempt, fault.Kind, 0, then)
			})
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
			faulted = false
		}
		// Reset / Truncate: a fraction of the body arrives, then the
		// connection dies — a partial transfer whose completion is the
		// failure instant. The arrived bytes still inform the estimator.
	}
	size := s.content.ChunkSize(track, idx)
	wireSize := size
	if faulted {
		wireSize = int64(float64(size) * fault.Fraction)
	}
	decidedAt := now
	var transfer *netsim.Transfer
	var timeoutEv *netsim.Event
	link := s.links[t]
	info := abr.TransferInfo{
		Type:       t,
		At:         s.rel(now),
		Concurrent: link.ActiveTransfers() + 1,
	}
	s.cfg.Model.OnStart(info)
	opts := netsim.StartOptions{
		Label: t.String(),
		OnComplete: func(tr *netsim.Transfer) {
			if s.ended {
				return // teardown raced this completion on a shared engine
			}
			if timeoutEv != nil {
				s.eng.Cancel(timeoutEv)
				timeoutEv = nil
			}
			done := s.eng.Now()
			if faulted {
				s.cfg.Model.OnComplete(abr.TransferInfo{
					Type:       t,
					Bytes:      tr.Done(),
					Duration:   done - tr.Started(),
					At:         s.rel(done),
					Concurrent: link.ActiveTransfers() + 1,
				})
				// The connection died with the body (RST or early close):
				// tear it down so the retry pays a fresh setup — full
				// handshake on H1/H2, 0-RTT resumption on H3.
				if fault.Kind == faults.Reset || fault.Kind == faults.Truncate {
					if c := s.conns[t]; c != nil {
						c.Reset()
					}
				}
				s.failChunk(t, idx, track, attempt, fault.Kind, int64(tr.Done()), then)
				return
			}
			if s.pol != nil {
				s.blacklist.Clear(track.ID)
			}
			if s.rec.Enabled() {
				s.rec.Emit(timeline.Event{
					At: done, Dur: done - tr.Started(), Kind: timeline.RequestDone,
					Type: t.String(), Track: track.ID, Index: idx,
					Attempt: attempt, Bytes: tr.Size(),
				})
			}
			s.frontier[t] = s.chunkStarts[t][idx+1]
			s.res.Chunks = append(s.res.Chunks, ChunkDecision{
				Index:       idx,
				Type:        t,
				Track:       track,
				DecidedAt:   s.rel(decidedAt),
				CompletedAt: s.rel(done),
				Bytes:       tr.Size(),
			})
			s.cfg.Model.OnComplete(abr.TransferInfo{
				Type:       t,
				Bytes:      float64(tr.Size()),
				Duration:   tr.Duration(),
				At:         s.rel(done),
				Concurrent: link.ActiveTransfers() + 1,
			})
			s.onFrontierAdvance()
			then()
		},
	}
	if s.cfg.SampleInterval > 0 {
		opts.SampleEvery = s.cfg.SampleInterval
		opts.OnSample = func(tr *netsim.Transfer, bytes float64, interval time.Duration) {
			if s.ended {
				return
			}
			s.cfg.Model.OnProgress(abr.TransferInfo{
				Type:       t,
				Bytes:      bytes,
				Duration:   interval,
				At:         s.rel(s.eng.Now()),
				Concurrent: link.ActiveTransfers(),
			})
			if !faulted {
				s.maybeAbandon(tr, t, idx, track, attempt, then)
			}
		}
	}
	if s.cfg.OnRequest != nil {
		opts.ExtraDelay = s.cfg.OnRequest(ChunkRequest{
			Index: idx, Type: t, Track: track, Attempt: attempt,
		})
	}
	opts.ExtraDelay += transportDelay
	transfer = s.startWire(t, wireSize, opts)
	s.transfers[t] = transfer
	// Per-request timeout: a transfer stuck behind an outage (or just too
	// slow) is cancelled and handed to the failure path.
	if s.pol != nil && s.pol.RequestTimeout > 0 {
		gen := s.gen[t]
		timeoutEv = s.eng.After(s.pol.RequestTimeout, func() {
			timeoutEv = nil
			// Drop if the session ended, an audio reset discarded the
			// stream, the transfer was abandoned-and-replaced (it is no
			// longer the type's current transfer), it completed, or it
			// was cancelled. The Cancelled check is load-bearing: an
			// abandoned transfer's replacement request can fail fast
			// (404/503/hung response) without starting a transfer, which
			// leaves s.transfers[t] still pointing at the abandoned one —
			// without the check this stale timer would time out the
			// abandoned attempt and fork a second retry chain for the
			// same chunk, double-counting the retry and eventually
			// calling the chunk's completion continuation twice.
			if s.ended || s.gen[t] != gen || s.transfers[t] != transfer ||
				transfer.Completed() || transfer.Cancelled() {
				return
			}
			link.Cancel(transfer)
			if transfer.Completed() {
				return // the last byte arrived at this very instant
			}
			done := s.eng.Now()
			s.cfg.Model.OnComplete(abr.TransferInfo{
				Type:       t,
				Bytes:      transfer.Done(),
				Duration:   done - transfer.Started(),
				At:         s.rel(done),
				Concurrent: link.ActiveTransfers() + 1,
			})
			if s.rec.Enabled() {
				s.rec.Emit(timeline.Event{
					At: done, Kind: timeline.RequestTimeout, Type: t.String(),
					Track: track.ID, Index: idx, Attempt: attempt,
					Bytes: int64(transfer.Done()),
				})
			}
			s.failChunk(t, idx, track, attempt, faults.Timeout, int64(transfer.Done()), then)
		})
	}
}

// --- Failure handling: retries, blacklisting, failover -------------------

// afterGuarded schedules fn after d, dropping it if the session ended or
// the stream's generation moved (an audio reset discarded the chunk the
// callback refers to).
func (s *Session) afterGuarded(t media.Type, d time.Duration, fn func()) {
	gen := s.gen[t]
	s.eng.After(d, func() {
		if s.ended || s.gen[t] != gen {
			return
		}
		fn()
	})
}

// recordFault appends one failure event to the result.
func (s *Session) recordFault(t media.Type, idx int, track *media.Track, attempt int, kind faults.Kind, wasted int64) {
	s.res.Faults = append(s.res.Faults, FaultEvent{
		Index: idx, Type: t, Track: track, Kind: kind,
		Attempt: attempt, At: s.rel(s.eng.Now()), WastedBytes: wasted,
	})
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: s.eng.Now(), Kind: timeline.RequestFailed, Type: t.String(),
			Track: track.ID, Index: idx, Attempt: attempt,
			Detail: kind.String(), Bytes: wasted,
		})
	}
}

// failChunk is the load-error handler. Without a policy the session
// aborts (the pre-robustness behaviour). With one, the failed track is
// struck, the download retried with seeded exponential backoff while the
// attempt budget lasts, and failed over to the nearest healthy track once
// it is spent — the other media type keeps streaming throughout.
func (s *Session) failChunk(t media.Type, idx int, track *media.Track, attempt int, kind faults.Kind, wasted int64, then func()) {
	if s.ended {
		return
	}
	s.recordFault(t, idx, track, attempt, kind, wasted)
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
	if !blocked && attempt+1 < s.pol.MaxAttempts {
		s.res.Retries++
		if s.rec.Enabled() {
			s.rec.Emit(timeline.Event{
				At: now, Kind: timeline.Retry, Type: t.String(),
				Track: track.ID, Index: idx, Attempt: attempt + 1,
			})
		}
		s.afterGuarded(t, s.pol.Backoff(attempt, key), func() {
			s.startChunk(t, idx, track, attempt+1, then)
		})
		return
	}
	repl := s.failoverTrack(t, track)
	if repl == nil {
		// Single-track ladder: the only option is the one that failed.
		repl = track
	}
	if repl != track {
		s.res.Failovers = append(s.res.Failovers, Failover{Index: idx, Type: t, From: track, To: repl, At: s.rel(now)})
		if s.rec.Enabled() {
			s.rec.Emit(timeline.Event{
				At: now, Kind: timeline.Failover, Type: t.String(),
				Track: repl.ID, Index: idx, Detail: track.ID,
			})
		}
		s.lastSel[t] = repl
	}
	s.res.Retries++
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.Retry, Type: t.String(),
			Track: repl.ID, Index: idx,
		})
	}
	s.afterGuarded(t, s.pol.Backoff(attempt, key), func() {
		s.startChunk(t, idx, repl, 0, then)
	})
}

// failoverTrack picks the substitute for a failing track: the highest
// non-blacklisted track at or below the failed bitrate, else the cheapest
// non-blacklisted track, else (everything exiled) the cheapest track of
// the type — a robust client keeps trying rather than giving up.
func (s *Session) failoverTrack(t media.Type, failed *media.Track) *media.Track {
	ladder := s.content.VideoTracks
	if t == media.Audio {
		ladder = s.content.AudioTracks
	}
	now := s.eng.Now()
	var lower, lowest, cheapest *media.Track
	for _, tr := range ladder {
		if cheapest == nil || tr.AvgBitrate < cheapest.AvgBitrate {
			cheapest = tr
		}
		if tr == failed || s.blacklist.Blocked(tr.ID, now) {
			continue
		}
		if lowest == nil || tr.AvgBitrate < lowest.AvgBitrate {
			lowest = tr
		}
		if tr.AvgBitrate <= failed.AvgBitrate && (lower == nil || tr.AvgBitrate > lower.AvgBitrate) {
			lower = tr
		}
	}
	switch {
	case lower != nil:
		return lower
	case lowest != nil:
		return lowest
	default:
		return cheapest
	}
}

// retrySeed keys the backoff jitter; sharing the fault plan's seed keeps
// one knob controlling all injected randomness.
func (s *Session) retrySeed() int64 {
	if s.plan != nil {
		return s.plan.Seed
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

// maybeAbandon consults the model's abandonment rule for an in-flight
// chunk; a replacement track cancels the transfer and refetches the chunk.
func (s *Session) maybeAbandon(tr *netsim.Transfer, t media.Type, idx int, track *media.Track, attempt int, then func()) {
	if s.abandoner == nil || tr.Completed() {
		return
	}
	now := s.eng.Now()
	repl := s.abandoner.Abandon(abr.DownloadProgress{
		Type:       t,
		Track:      track,
		ChunkIndex: idx,
		BytesDone:  tr.Done(),
		BytesTotal: tr.Size(),
		Elapsed:    now - tr.Started(),
		Buffer:     s.bufferOf(t, now),
		Attempt:    attempt,
	})
	if repl == nil || repl == track {
		return
	}
	if repl.Type != t {
		panic(fmt.Sprintf("player: model %q abandoned to a %s track for a %s download", s.cfg.Model.Name(), repl.Type, t))
	}
	s.links[t].Cancel(tr)
	// Close the observer's view of the aborted transfer with what actually
	// moved, then record and refetch.
	s.cfg.Model.OnComplete(abr.TransferInfo{
		Type:       t,
		Bytes:      tr.Done(),
		Duration:   now - tr.Started(),
		At:         s.rel(now),
		Concurrent: s.links[t].ActiveTransfers() + 1,
	})
	s.res.Abandonments = append(s.res.Abandonments, Abandonment{
		Index: idx, Type: t, From: track, To: repl, At: s.rel(now),
	})
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.Abandon, Type: t.String(),
			Track: repl.ID, Index: idx, Detail: track.ID,
			Bytes: int64(tr.Done()),
		})
	}
	s.lastSel[t] = repl
	s.startChunk(t, idx, repl, attempt+1, then)
}
