// Package faults is the deterministic fault-injection layer and the
// download-robustness policy shared by the simulator and the real HTTP
// path.
//
// A Plan decides, as a pure function of (seed, track, segment index,
// attempt), whether a segment request fails and how: HTTP 404/503,
// connection reset, response timeout, or mid-transfer truncation. Because
// the decision is a hash rather than a stateful RNG stream, it is
// independent of request order — sessions fanned out across runpool
// workers see exactly the faults a serial run sees, which is what keeps
// resilience reports byte-identical under -parallel N.
//
// A Policy describes how a robust client reacts: per-request timeout,
// bounded exponential backoff with seeded jitter, per-track failure
// blacklisting, and failover to the next candidate track
// (Blacklist.Failover) — ExoPlayer-style load-error handling. The same
// Policy drives the player simulation (in virtual time) and httpclient
// (in wall time); only the sleep primitive differs.
package faults

import (
	"fmt"
	"time"

	"demuxabr/internal/media"
)

// Kind is one failure mode a segment request can suffer.
type Kind int

// The injectable failure modes.
const (
	// None means the request succeeds.
	None Kind = iota
	// HTTP404 is a not-found response: fails fast, no bytes transferred.
	HTTP404
	// HTTP503 is a service-unavailable response: fails fast, retryable.
	HTTP503
	// Reset is a connection reset partway through the body.
	Reset
	// Timeout is a response that never arrives; only a client-side
	// request timeout detects it.
	Timeout
	// Truncate is a body cut short of its declared length: the client
	// receives a fraction of the bytes, then the connection closes.
	Truncate
	// HandshakeFail is a connection attempt that dies in setup (DNS, TCP
	// or TLS/QUIC handshake): the request burns the handshake round
	// trips, receives nothing, and the connection starts the next
	// attempt cold. Fails fast, retryable.
	HandshakeFail
	// Migration is a network path change under the client (WiFi to
	// cellular). It is not a failure: QUIC validates the new path in one
	// round trip and keeps the connection, TCP must reconnect — the cost
	// only exists when a transport is configured.
	Migration
)

// String names the kind for logs and reports.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case HTTP404:
		return "http-404"
	case HTTP503:
		return "http-503"
	case Reset:
		return "reset"
	case Timeout:
		return "timeout"
	case Truncate:
		return "truncate"
	case HandshakeFail:
		return "handshake-fail"
	case Migration:
		return "migration"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AllKinds is the default injection mix. The transport kinds are not in
// it: adding them would re-deal every existing seeded plan's kind draws,
// and they only model costs when a transport is configured. Opt in with
// TransportKinds.
func AllKinds() []Kind {
	return []Kind{HTTP404, HTTP503, Reset, Timeout, Truncate}
}

// TransportKinds are the connection-level fault kinds introduced with
// the transport layer; append them to a plan's Kinds to exercise
// handshake failures and path migrations.
func TransportKinds() []Kind {
	return []Kind{HandshakeFail, Migration}
}

// Fault is one injected failure.
type Fault struct {
	// Kind is the failure mode.
	Kind Kind
	// Fraction is how much of the body arrives before a Reset or
	// Truncate (0 for the fail-fast kinds).
	Fraction float64
	// Persistence is how many consecutive attempts the fault survives;
	// attempt numbers >= Persistence succeed.
	Persistence int
}

// Window is a half-open interval of session time during which a link is
// fully blacked out.
type Window struct {
	Start, End time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool {
	return t >= w.Start && t < w.End
}

// Plan is a seeded, order-independent fault schedule. The zero value
// injects nothing.
type Plan struct {
	// Seed selects the schedule; two plans with the same seed and knobs
	// agree on every decision.
	Seed int64
	// Rate is the per-segment-request fault probability in [0, 1].
	Rate float64
	// Kinds restricts which failure modes are injected (default: all).
	Kinds []Kind
	// MaxPersistence bounds how many consecutive attempts one fault
	// survives; each fault draws its persistence from 1..MaxPersistence
	// (default 2). Negative means faults never clear — every attempt on
	// a faulted segment fails, modelling a hard failure.
	MaxPersistence int
	// Targets restricts injection to these track IDs (nil = all tracks).
	Targets []string
	// Blackouts are link outage windows; the network layer (netsim
	// Link.AddOutage, or the origin's shaper) applies them.
	Blackouts []Window
}

// SegmentFault decides whether the given attempt at downloading segment
// idx of the track fails, and how. The decision is a pure function: any
// caller, in any order, on any goroutine, gets the same answer, so one
// Plan may be shared by concurrent sessions.
func (p *Plan) SegmentFault(trackID string, idx, attempt int) (Fault, bool) {
	if p == nil || p.Rate <= 0 {
		return Fault{}, false
	}
	if len(p.Targets) > 0 {
		hit := false
		for _, id := range p.Targets {
			if id == trackID {
				hit = true
				break
			}
		}
		if !hit {
			return Fault{}, false
		}
	}
	h := Key(p.Seed, trackID, idx)
	if unit(h) >= p.Rate {
		return Fault{}, false
	}
	kinds := p.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	f := Fault{Kind: kinds[mix(h^0xa5a5a5a5)%uint64(len(kinds))]}
	maxPersist := p.MaxPersistence
	if maxPersist == 0 {
		maxPersist = 2
	}
	if maxPersist < 0 {
		f.Persistence = attempt + 1 // never clears
	} else {
		f.Persistence = 1 + int(mix(h^0x5a5a5a5a)%uint64(maxPersist))
	}
	if attempt >= f.Persistence {
		return Fault{}, false
	}
	if f.Kind == Reset || f.Kind == Truncate {
		f.Fraction = 0.1 + 0.8*unit(mix(h^0x3c3c3c3c))
	}
	return f, true
}

// Key hashes a (seed, track, segment) triple into the 64-bit space all
// per-request randomness (fault draws, backoff jitter) is derived from.
func Key(seed int64, trackID string, idx int) uint64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(trackID); i++ {
		h = mix(h ^ uint64(trackID[i]))
	}
	return mix(h ^ uint64(uint32(idx)))
}

// mix is MurmurHash3's fmix64 finalizer: a bijective avalanche over 64
// bits.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Policy is the download-robustness configuration. The zero value is not
// useful; start from DefaultPolicy or call WithDefaults.
type Policy struct {
	// MaxAttempts is the per-track request budget for one segment,
	// including the first try; once spent the client fails over.
	MaxAttempts int
	// RequestTimeout bounds one request; a request exceeding it is
	// cancelled and counted as a fault.
	RequestTimeout time.Duration
	// BaseBackoff is the delay before the first retry.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// BackoffFactor multiplies the delay per retry.
	BackoffFactor float64
	// JitterFrac spreads each delay uniformly over
	// [1-J/2, 1+J/2] × nominal, seeded so replays agree.
	JitterFrac float64
	// BlacklistAfter is how many consecutive failures exile a track.
	BlacklistAfter int
	// BlacklistFor is how long an exiled track stays ineligible.
	BlacklistFor time.Duration
}

// DefaultPolicy is the ExoPlayer-flavoured default: a handful of quick
// retries, then failover, with a 15 s request timeout generous enough that
// slow-but-alive links are not misread as dead.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:    4,
		RequestTimeout: 15 * time.Second,
		BaseBackoff:    200 * time.Millisecond,
		MaxBackoff:     3200 * time.Millisecond,
		BackoffFactor:  2,
		JitterFrac:     0.5,
		BlacklistAfter: 3,
		BlacklistFor:   30 * time.Second,
	}
}

// WithDefaults fills zero-valued knobs from DefaultPolicy.
func (p Policy) WithDefaults() Policy {
	d := DefaultPolicy()
	if p.MaxAttempts == 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.RequestTimeout == 0 {
		p.RequestTimeout = d.RequestTimeout
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	//lint:ignore floateq exact zero detects the unset zero value, not a computed quantity
	if p.BackoffFactor == 0 {
		p.BackoffFactor = d.BackoffFactor
	}
	//lint:ignore floateq exact zero detects the unset zero value, not a computed quantity
	if p.JitterFrac == 0 {
		p.JitterFrac = d.JitterFrac
	}
	if p.BlacklistAfter == 0 {
		p.BlacklistAfter = d.BlacklistAfter
	}
	if p.BlacklistFor == 0 {
		p.BlacklistFor = d.BlacklistFor
	}
	return p
}

// Backoff is the delay before retry number attempt+1 (attempt counts from
// 0 = the first, failed, try). key seeds the jitter — pass Key(seed,
// trackID, idx) so the delay is a replayable function of the request, not
// of scheduler interleaving.
func (p Policy) Backoff(attempt int, key uint64) time.Duration {
	d := float64(p.BaseBackoff)
	for i := 0; i < attempt; i++ {
		d *= p.BackoffFactor
	}
	if lim := float64(p.MaxBackoff); p.MaxBackoff > 0 && d > lim {
		d = lim
	}
	if p.JitterFrac > 0 {
		u := unit(mix(key ^ (uint64(uint32(attempt)) * 0x9e3779b97f4a7c15)))
		d *= 1 - p.JitterFrac/2 + p.JitterFrac*u
	}
	return time.Duration(d)
}

// Blacklist tracks per-track consecutive failures and exile windows. Time
// is whatever clock the caller lives on — virtual session time in the
// simulator, time.Since(start) on the real path. Not goroutine-safe;
// callers serialize access.
type Blacklist struct {
	strikes map[string]int
	until   map[string]time.Duration
}

// NewBlacklist returns an empty blacklist.
func NewBlacklist() *Blacklist {
	return &Blacklist{strikes: map[string]int{}, until: map[string]time.Duration{}}
}

// Reset empties the blacklist, keeping its maps' storage for reuse.
func (b *Blacklist) Reset() {
	clear(b.strikes)
	clear(b.until)
}

// Strike records a failure for the track at the given time and reports
// whether the track just crossed the blacklist threshold.
func (b *Blacklist) Strike(trackID string, now time.Duration, p Policy) bool {
	b.strikes[trackID]++
	if p.BlacklistAfter > 0 && b.strikes[trackID] >= p.BlacklistAfter {
		b.until[trackID] = now + p.BlacklistFor
		b.strikes[trackID] = 0
		return true
	}
	return false
}

// Clear resets the consecutive-failure count after a success.
func (b *Blacklist) Clear(trackID string) {
	delete(b.strikes, trackID)
}

// Blocked reports whether the track is currently exiled.
func (b *Blacklist) Blocked(trackID string, now time.Duration) bool {
	until, ok := b.until[trackID]
	return ok && now < until
}

// Failover picks the substitute for a failing track from its ladder: the
// highest non-blacklisted track at or below the failed bitrate, else the
// cheapest non-blacklisted one. It returns nil when every candidate other
// than the failed track is exiled.
func (b *Blacklist) Failover(ladder []*media.Track, failed *media.Track, now time.Duration) *media.Track {
	var lower, lowest *media.Track
	for _, tr := range ladder {
		if tr == failed || b.Blocked(tr.ID, now) {
			continue
		}
		if lowest == nil || tr.AvgBitrate < lowest.AvgBitrate {
			lowest = tr
		}
		if tr.AvgBitrate <= failed.AvgBitrate && (lower == nil || tr.AvgBitrate > lower.AvgBitrate) {
			lower = tr
		}
	}
	if lower != nil {
		return lower
	}
	return lowest
}
