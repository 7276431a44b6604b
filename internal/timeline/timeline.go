// Package timeline is the simulator's flight recorder: a per-session log of
// structured events — ABR decisions, request lifecycle steps, buffer levels,
// stalls, faults, cache outcomes, link-rate changes — timestamped in engine
// time, never wall clock.
//
// The recorder is zero-overhead when disabled: a nil *Recorder is a valid
// no-op receiver, and every call site that must build strings or look up
// sizes for an event guards with Enabled() first, so a session running
// without observability allocates nothing extra on the hot path.
//
// Events are collected per session (one Recorder per session, plus one for
// shared infrastructure such as the fleet uplink), and every event is
// appended from inside the discrete-event engine's single-threaded run loop
// — so a fleet fanned out across runpool workers produces byte-identical
// exports at any -parallel setting. Export formats are JSONL (one event per
// line, session-major) and the Chrome trace-event format viewable in
// Perfetto (see export.go).
package timeline

import "time"

// Kind classifies one flight-recorder event.
type Kind uint8

// The event kinds, roughly in lifecycle order.
const (
	// Decision is an ABR selection: the chosen track (or combination) plus
	// the buffer levels and bandwidth estimate that drove it.
	Decision Kind = iota
	// Request is a chunk request put on the wire.
	Request
	// RequestDone is a completed download; Dur spans first byte to last.
	RequestDone
	// RequestFailed is a failed download attempt (injected fault, timeout,
	// truncated body); Detail names the failure mode.
	RequestFailed
	// RequestTimeout is the client-side timeout policy cancelling a request.
	RequestTimeout
	// Retry is a scheduled re-attempt after a failure.
	Retry
	// Blacklist is a track crossing the consecutive-failure threshold.
	Blacklist
	// Failover is a substitution of a failing track; Detail names the track
	// failed away from.
	Failover
	// FaultInjected is the fault plan deciding a request fails (emitted by
	// the player when it draws the request's fault).
	FaultInjected
	// Abandon is an in-flight download cancelled by the model's
	// abandonment rule; Detail names the abandoned track.
	Abandon
	// Buffer is a periodic buffer-level sample (both types, plus the
	// model's bandwidth estimate when it reports one).
	Buffer
	// StallStart marks playback halting on an empty buffer.
	StallStart
	// StallEnd marks playback resuming; Dur is the stall length.
	StallEnd
	// Startup marks the first frame; Dur is the startup delay.
	Startup
	// AudioReset is a mid-session audio stream reset (language switch).
	AudioReset
	// SessionEnd marks the session finishing or aborting; Detail carries
	// the abort reason for aborts.
	SessionEnd
	// CacheHit is a request served from the shared edge cache.
	CacheHit
	// CacheMiss is a request the edge had to fetch from the origin.
	CacheMiss
	// LinkRate is an observed change of a link's (or uplink's) effective
	// capacity; Rate is the new capacity in Kbps.
	LinkRate
	// Handshake marks a transport connection setup completing; Dur is the
	// time it cost, Detail the protocol (suffixed -resume/-0rtt when the
	// connection reconnected on a session ticket).
	Handshake
	// HoLStall marks one stream frozen by transport loss recovery; Dur is
	// the stall length, Type the stream's label, Detail the protocol. An
	// H2 loss emits one HoLStall per stream it head-of-line blocked.
	HoLStall
	// LatencySample is a periodic live-edge latency measurement; Dur is the
	// latency (live edge minus playback position), Rate the current
	// playback rate.
	LatencySample
	// RateChange is the live catch-up controller adjusting playback speed;
	// Rate is the new playback rate, Detail the previous one.
	RateChange
	// LiveResync is the player jumping forward to re-acquire the live edge
	// after latency overran the resync threshold; Dur is the media time
	// skipped.
	LiveResync

	numKinds
)

// String names the kind for exports and logs.
func (k Kind) String() string {
	switch k {
	case Decision:
		return "decision"
	case Request:
		return "request"
	case RequestDone:
		return "request-done"
	case RequestFailed:
		return "request-failed"
	case RequestTimeout:
		return "request-timeout"
	case Retry:
		return "retry"
	case Blacklist:
		return "blacklist"
	case Failover:
		return "failover"
	case FaultInjected:
		return "fault-injected"
	case Abandon:
		return "abandon"
	case Buffer:
		return "buffer"
	case StallStart:
		return "stall-start"
	case StallEnd:
		return "stall-end"
	case Startup:
		return "startup"
	case AudioReset:
		return "audio-reset"
	case SessionEnd:
		return "session-end"
	case CacheHit:
		return "cache-hit"
	case CacheMiss:
		return "cache-miss"
	case LinkRate:
		return "link-rate"
	case Handshake:
		return "handshake"
	case HoLStall:
		return "hol-stall"
	case LatencySample:
		return "latency-sample"
	case RateChange:
		return "rate-change"
	case LiveResync:
		return "live-resync"
	default:
		return "unknown"
	}
}

// Event is one flight-recorder entry. Fields beyond At and Kind are
// kind-specific; unused ones stay at their zero values and are omitted from
// exports. All times are engine time (absolute within the run), so events
// from different sessions of one fleet interleave on a common axis.
type Event struct {
	// At is the engine time of the event.
	At time.Duration
	// Dur is the span the event closes (transfer time for RequestDone,
	// stall length for StallEnd, startup delay for Startup).
	Dur time.Duration
	// Kind classifies the event.
	Kind Kind
	// Type is the media type or subsystem ("video", "audio", "muxed",
	// "combo", "link", "uplink").
	Type string
	// Track is the track or combination the event concerns.
	Track string
	// Index is the chunk position, -1 when not applicable.
	Index int
	// Attempt counts retries of the chunk on the track, from 0.
	Attempt int
	// Detail carries kind-specific context (fault kind, failed-from track,
	// abort reason).
	Detail string
	// Bytes is the payload size the event accounts for.
	Bytes int64
	// Rate is a rate in Kbps (bandwidth estimate, link capacity).
	Rate float64
	// VideoBuf and AudioBuf are the buffer levels at the event.
	VideoBuf time.Duration
	// AudioBuf is documented with VideoBuf.
	AudioBuf time.Duration
}

// Counters is the small metrics registry a recorder maintains alongside the
// event log — the numbers a report surfaces without shipping the full
// timeline.
type Counters struct {
	// Events is the total number of recorded events.
	Events int64 `json:"events"`
	// Decisions counts ABR selections.
	Decisions int64 `json:"decisions"`
	// Requests counts wire requests issued.
	Requests int64 `json:"requests"`
	// Retries counts scheduled re-attempts.
	Retries int64 `json:"retries"`
	// Timeouts counts client-side request timeouts.
	Timeouts int64 `json:"timeouts"`
	// Blacklists counts tracks exiled by the failure threshold.
	Blacklists int64 `json:"blacklists"`
	// Failovers counts track substitutions.
	Failovers int64 `json:"failovers"`
	// Faults counts injected fault decisions.
	Faults int64 `json:"faults"`
	// Stalls counts rebuffering events.
	Stalls int64 `json:"stalls"`
	// CacheHits and CacheMisses count shared-edge outcomes.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses is documented with CacheHits.
	CacheMisses int64 `json:"cache_misses"`
	// BytesDownloaded sums completed downloads' payloads.
	BytesDownloaded int64 `json:"bytes_downloaded"`
	// Handshakes and HoLStalls count transport connection setups and
	// loss-recovery stream stalls. Both are omitempty so documents from
	// transport-free runs keep their exact pre-transport shape.
	Handshakes int64 `json:"handshakes,omitempty"`
	// HoLStalls is documented with Handshakes.
	HoLStalls int64 `json:"hol_stalls,omitempty"`
	// LatencySamples, RateChanges, and LiveResyncs count live-session
	// events. All omitempty so documents from VOD runs keep their exact
	// pre-live shape.
	LatencySamples int64 `json:"latency_samples,omitempty"`
	// RateChanges is documented with LatencySamples.
	RateChanges int64 `json:"rate_changes,omitempty"`
	// LiveResyncs is documented with LatencySamples.
	LiveResyncs int64 `json:"live_resyncs,omitempty"`
}

// add folds one event into the counters.
func (c *Counters) add(ev Event) {
	c.Events++
	switch ev.Kind {
	case Decision:
		c.Decisions++
	case Request:
		c.Requests++
	case RequestDone:
		c.BytesDownloaded += ev.Bytes
	case Retry:
		c.Retries++
	case RequestTimeout:
		c.Timeouts++
	case Blacklist:
		c.Blacklists++
	case Failover:
		c.Failovers++
	case FaultInjected:
		c.Faults++
	case StallStart:
		c.Stalls++
	case CacheHit:
		c.CacheHits++
	case CacheMiss:
		c.CacheMisses++
	case Handshake:
		c.Handshakes++
	case HoLStall:
		c.HoLStalls++
	case LatencySample:
		c.LatencySamples++
	case RateChange:
		c.RateChanges++
	case LiveResync:
		c.LiveResyncs++
	}
}

// Merge returns the field-wise sum of two counter sets.
func (c Counters) Merge(o Counters) Counters {
	return Counters{
		Events:          c.Events + o.Events,
		Decisions:       c.Decisions + o.Decisions,
		Requests:        c.Requests + o.Requests,
		Retries:         c.Retries + o.Retries,
		Timeouts:        c.Timeouts + o.Timeouts,
		Blacklists:      c.Blacklists + o.Blacklists,
		Failovers:       c.Failovers + o.Failovers,
		Faults:          c.Faults + o.Faults,
		Stalls:          c.Stalls + o.Stalls,
		CacheHits:       c.CacheHits + o.CacheHits,
		CacheMisses:     c.CacheMisses + o.CacheMisses,
		BytesDownloaded: c.BytesDownloaded + o.BytesDownloaded,
		Handshakes:      c.Handshakes + o.Handshakes,
		HoLStalls:       c.HoLStalls + o.HoLStalls,
		LatencySamples:  c.LatencySamples + o.LatencySamples,
		RateChanges:     c.RateChanges + o.RateChanges,
		LiveResyncs:     c.LiveResyncs + o.LiveResyncs,
	}
}

// Recorder collects one session's (or one shared component's) events. The
// nil recorder is the disabled recorder: Enabled reports false and Emit is
// a no-op, so instrumented code needs no conditional wiring — only call
// sites that build event fields eagerly should guard with Enabled.
type Recorder struct {
	session int
	label   string
	events  []Event
	c       Counters
}

// New creates a recorder for the given session index. The label names the
// session in exports (e.g. "s0 bestpractice" or "uplink").
func New(session int, label string) *Recorder {
	return &Recorder{session: session, label: label}
}

// Enabled reports whether events will actually be recorded. Call it before
// building an event whose fields require allocation (string concatenation,
// size lookups); Emit itself is already nil-safe.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit appends one event and updates the counters. No-op on nil.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, ev)
	r.c.add(ev)
}

// Session returns the session index the recorder was created with.
func (r *Recorder) Session() int {
	if r == nil {
		return -1
	}
	return r.session
}

// Label returns the recorder's export label.
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// Events returns the recorded events in emission order. The slice is the
// recorder's own backing store; callers must not mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Counters returns the running totals.
func (r *Recorder) Counters() Counters {
	if r == nil {
		return Counters{}
	}
	return r.c
}
