package netsim

import (
	"fmt"
	"time"

	"demuxabr/internal/timeline"
)

// Protocol selects the HTTP version a connection speaks. The three
// generations differ in exactly the dimensions that matter once demuxed
// A/V doubles the request count: connection setup cost, how many requests
// share one connection, and whether a loss stalls one stream or all of
// them.
type Protocol uint8

const (
	// H1 is HTTP/1.1 over TCP+TLS: one request at a time per connection,
	// so concurrent audio and video fetches need two connections — each
	// paying its own handshakes and each idling out separately.
	H1 Protocol = iota
	// H2 is HTTP/2 over TCP+TLS: streams multiplex on one connection and
	// share its congestion window, so a single lost packet head-of-line
	// blocks every stream until TCP recovers.
	H2
	// H3 is HTTP/3 over QUIC: 1-RTT setup, 0-RTT resumption, and
	// independent stream delivery — a loss stalls only the stream it hit.
	H3
)

// String renders the flag spelling ("h1", "h2", "h3").
func (p Protocol) String() string {
	switch p {
	case H2:
		return "h2"
	case H3:
		return "h3"
	default:
		return "h1"
	}
}

// ParseProtocol parses the -transport flag spelling.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "h1", "http/1.1":
		return H1, nil
	case "h2", "http/2":
		return H2, nil
	case "h3", "http/3", "quic":
		return H3, nil
	}
	return H1, fmt.Errorf("netsim: unknown transport %q (want h1, h2 or h3)", s)
}

// TransportConfig parameterizes a Conn. All costs are expressed in link
// round trips so one config scales with the path it is attached to.
// Values are taken literally — a zero field means zero, not "default";
// use DefaultTransport for the per-protocol presets.
type TransportConfig struct {
	Protocol Protocol
	// HandshakeRTTs is the setup cost of a first-ever connection
	// (TCP SYN + TLS for H1/H2, the combined QUIC handshake for H3).
	HandshakeRTTs float64
	// ResumeRTTs is the setup cost of reconnecting once a session ticket
	// exists: TLS session resumption for H1/H2, 0 for QUIC 0-RTT.
	ResumeRTTs float64
	// MaxStreams caps concurrent requests per connection (HTTP/1.1
	// serializes: 1). Zero or negative means unlimited multiplexing.
	MaxStreams int
	// IdleTimeout models the server's keep-alive window: a connection
	// idle at least this long is found closed by the next request, which
	// pays the resume cost. Zero keeps connections open forever.
	IdleTimeout time.Duration
	// LossRate is the per-request probability that a loss hits the
	// response right as its first byte lands, stalling the affected
	// stream(s) for RecoveryRTTs round trips. Draws are a pure function
	// of (Seed, connection label, request ordinal) — deterministic and
	// independent of scheduling.
	LossRate float64
	// RecoveryRTTs is the stall length charged per loss, in round trips.
	RecoveryRTTs float64
	// Seed feeds the per-request loss draws.
	Seed int64
}

// DefaultTransport returns the per-protocol preset: H1/H2 pay ~3 RTTs to
// connect (TCP + TLS) and 2 to resume, H3 pays 1 and resumes in 0-RTT;
// H1 serializes requests while H2/H3 multiplex; QUIC's loss recovery is
// modelled one RTT cheaper than TCP's RTO-flavoured stall.
func DefaultTransport(p Protocol) TransportConfig {
	switch p {
	case H2:
		return TransportConfig{Protocol: H2, HandshakeRTTs: 3, ResumeRTTs: 2, MaxStreams: 0, RecoveryRTTs: 2}
	case H3:
		return TransportConfig{Protocol: H3, HandshakeRTTs: 1, ResumeRTTs: 0, MaxStreams: 0, RecoveryRTTs: 1}
	default:
		return TransportConfig{Protocol: H1, HandshakeRTTs: 3, ResumeRTTs: 2, MaxStreams: 1, RecoveryRTTs: 2}
	}
}

// ConnStats is a connection's lifetime accounting.
type ConnStats struct {
	// Handshakes counts full (first-ever) connection setups charged.
	Handshakes int
	// Resumes counts reconnections priced at ResumeRTTs (0-RTT for H3).
	Resumes int
	// FailedHandshakes counts connection attempts that burned their
	// round trips and failed (fault-injected).
	FailedHandshakes int
	// Migrations counts network path changes observed.
	Migrations int
	// HoLStalls counts stream stalls charged by loss events; under H2 a
	// single loss contributes one stall per multiplexed stream it froze.
	HoLStalls int
	// HandshakeWait is total time requests spent waiting on setups.
	HandshakeWait time.Duration
	// HoLWait is total stream-seconds spent frozen in loss recovery.
	HoLWait time.Duration
}

// Add folds another connection's accounting into s.
func (s *ConnStats) Add(o ConnStats) {
	s.Handshakes += o.Handshakes
	s.Resumes += o.Resumes
	s.FailedHandshakes += o.FailedHandshakes
	s.Migrations += o.Migrations
	s.HoLStalls += o.HoLStalls
	s.HandshakeWait += o.HandshakeWait
	s.HoLWait += o.HoLWait
}

// Conn is one transport connection riding a Link (or an Uplink leaf). It
// layers request-level connection semantics on the fluid byte flow: setup
// round trips before the first request (and again after idle timeouts or
// teardowns), a cap on concurrent requests, and loss-driven stalls whose
// blast radius depends on the protocol.
//
// State machine: cold → handshaking → established, back to cold via
// Reset/FailHandshake/Migrate (TCP) or the lazy idle-timeout check at the
// next request. A connection that has ever completed a handshake
// reconnects at the resume price.
//
// The zero-cost contract: a config with HandshakeRTTs == 0 models
// connection setup as free and unobservable — no events, no counters, no
// extra engine events — so a session run through such a Conn is
// byte-identical to one issuing bare Link.Start calls. The transport-off
// equivalence gate in check.sh rests on this.
type Conn struct {
	link  *Link
	cfg   TransportConfig
	label string
	rec   *timeline.Recorder

	established   bool
	handshaking   bool
	everConnected bool
	lastUsed      time.Duration
	hsEv          Handle
	// hsCost and hsResumed price the setup in progress; hsTick is its
	// completion, bound once in NewConn so a reconnect (or a Reuse)
	// allocates nothing.
	hsCost    time.Duration
	hsResumed bool
	hsTick    func()

	inflight int
	live     []*Transfer // dispatched and not yet off the wire
	queue    []*Transfer // waiting for the handshake or a stream slot

	reqSeq uint64
	stats  ConnStats
}

// NewConn attaches a connection to the link. The label tags the
// connection in timeline events and seeds its loss draws, so give the
// audio and video connections of one session distinct labels.
func NewConn(l *Link, cfg TransportConfig, label string) *Conn {
	if l == nil {
		panic("netsim: nil link")
	}
	c := new(Conn)
	c.hsTick = c.finishHandshake
	c.Reuse(l, cfg, label)
	return c
}

// Reuse re-attaches c to the link as NewConn would make it: cold, with no
// recorder and zero stats. c must be done with its last link: every
// transfer off the wire and its engine drained, so no handshake is
// pending. Its request lists keep their capacity and its handshake tick
// its binding, so a reused connection allocates nothing.
func (c *Conn) Reuse(l *Link, cfg TransportConfig, label string) {
	if l == nil {
		panic("netsim: nil link")
	}
	if len(c.live) > 0 || len(c.queue) > 0 {
		panic("netsim: Reuse of a connection with requests in flight")
	}
	*c = Conn{link: l, cfg: cfg, label: label, hsTick: c.hsTick, live: c.live, queue: c.queue}
}

// SetRecorder attaches a flight recorder for handshake and HoL-stall
// events. Pass nil to detach.
func (c *Conn) SetRecorder(rec *timeline.Recorder) { c.rec = rec }

// Established reports whether the connection is currently usable without
// a new setup.
func (c *Conn) Established() bool { return c.established }

// Stats returns the connection's lifetime accounting.
func (c *Conn) Stats() ConnStats { return c.stats }

// Protocol returns the configured protocol.
func (c *Conn) Protocol() Protocol { return c.cfg.Protocol }

// Start issues a request on the connection. The transfer's first byte
// moves after any pending setup completes, a stream slot frees up, and
// the usual pre-byte delay (link RTT + ExtraDelay) elapses. The returned
// transfer is live immediately for Cancel purposes, exactly like
// Link.Start.
func (c *Conn) Start(size int64, opts StartOptions) *Transfer {
	tr := c.link.prepare(size, opts)
	tr.conn = c
	// Lazy keep-alive: a connection idle past IdleTimeout was closed by
	// the server long ago; this request discovers that and reconnects.
	if c.established && c.cfg.IdleTimeout > 0 && c.inflight == 0 &&
		c.link.eng.Now()-c.lastUsed >= c.cfg.IdleTimeout {
		c.established = false
	}
	c.queue = append(c.queue, tr)
	if c.established {
		c.drain()
	} else if !c.handshaking {
		c.connect()
	}
	return tr
}

// connectCost prices the next setup: full handshake on a first-ever
// connection, resume afterwards.
func (c *Conn) connectCost() time.Duration {
	rtts := c.cfg.HandshakeRTTs
	if c.everConnected {
		rtts = c.cfg.ResumeRTTs
	}
	if rtts <= 0 {
		return 0
	}
	return time.Duration(rtts * float64(c.link.RTT))
}

// connect begins a setup and drains the queue when it completes.
func (c *Conn) connect() {
	if c.cfg.HandshakeRTTs <= 0 {
		// Free, unobservable setup — the zero-cost contract (see type doc).
		c.established = true
		c.everConnected = true
		c.drain()
		return
	}
	c.hsCost = c.connectCost()
	c.hsResumed = c.everConnected
	if c.hsCost <= 0 {
		// 0-RTT (or an RTT-free link): data flows immediately, but the
		// resumption is still on the record.
		c.finishHandshake()
		return
	}
	c.handshaking = true
	c.hsEv = c.link.eng.After(c.hsCost, c.hsTick)
}

// finishHandshake completes the setup connect began and drains the queue.
func (c *Conn) finishHandshake() {
	c.hsEv = Handle{}
	c.handshaking = false
	c.established = true
	c.everConnected = true
	if c.hsResumed {
		c.stats.Resumes++
	} else {
		c.stats.Handshakes++
	}
	c.stats.HandshakeWait += c.hsCost
	c.emitHandshake()
	c.drain()
}

// drain dispatches queued requests while stream slots are free.
func (c *Conn) drain() {
	for len(c.queue) > 0 && (c.cfg.MaxStreams <= 0 || c.inflight < c.cfg.MaxStreams) {
		tr := c.queue[0]
		copy(c.queue, c.queue[1:])
		c.queue[len(c.queue)-1] = nil
		c.queue = c.queue[:len(c.queue)-1]
		c.dispatch(tr)
	}
}

// dispatch puts one request on the wire and, when the seeded draw says a
// loss hits it, schedules the stall for the instant its first byte lands.
func (c *Conn) dispatch(tr *Transfer) {
	c.inflight++
	c.live = append(c.live, tr)
	c.lastUsed = c.link.eng.Now()
	c.link.scheduleActivation(tr)
	if c.cfg.LossRate > 0 && c.lossDraw() {
		if tr.strikeTick == nil {
			tr.strikeTick = tr.strike
		}
		tr.holds++ // the strike timer reaches tr without a handle
		c.link.eng.After(tr.preDelay, tr.strikeTick)
	}
}

// strike is the loss timer set by dispatch.
func (tr *Transfer) strike() {
	tr.conn.strike(tr)
	tr.holds--
	tr.tryRecycle()
}

// lossDraw is the per-request loss coin: a pure function of the config
// seed, the connection label, and the request ordinal on this connection.
func (c *Conn) lossDraw() bool {
	c.reqSeq++
	h := transportMix(uint64(c.cfg.Seed) ^ transportLabelHash(c.label) ^ c.reqSeq*0x9e3779b97f4a7c15)
	return transportUnit(h) < c.cfg.LossRate
}

// strike applies one loss event: the affected stream — or, under H2's
// shared congestion window, every in-flight stream on the connection —
// freezes for RecoveryRTTs round trips, then resumes. H1 and H3 stall
// only the stream the loss hit: H1 because each response owns its
// connection, H3 because QUIC delivers streams independently.
//
// The streams a loss hits are chained through Transfer.stallNext, and
// those it froze stay chained until one recovery timer resumes them all,
// so a warm strike allocates nothing. A transfer is in at most one chain:
// one that is frozen, or off the wire, is never hit.
func (c *Conn) strike(tr *Transfer) {
	if tr.completed || tr.cancelled {
		return
	}
	recovery := time.Duration(c.cfg.RecoveryRTTs * float64(c.link.RTT))
	if recovery <= 0 {
		return
	}
	// Suspend advances the link, and a completion it delivers may lead an
	// owner to release a transfer still in the hit chain, or change c.live:
	// the chain is a snapshot, and each transfer in it is held.
	var hit chain
	if c.cfg.Protocol == H2 {
		for _, a := range c.live {
			if !a.completed && !a.cancelled && !a.suspended {
				a.holds++
				hit.push(a)
			}
		}
	} else if !tr.suspended {
		tr.holds++
		hit.push(tr)
	}
	// The transfers this loss froze keep their hold for the recovery
	// timer; the rest are released once every hit has been tried.
	var stalled, spared chain
	for a := hit.head; a != nil; {
		next := a.stallNext
		a.stallNext = nil
		if c.link.Suspend(a) {
			stalled.push(a)
			c.stats.HoLStalls++
			c.stats.HoLWait += recovery
			c.rec.Emit(timeline.Event{
				At:     c.link.eng.Now(),
				Dur:    recovery,
				Kind:   timeline.HoLStall,
				Type:   a.Label,
				Track:  c.label,
				Index:  -1,
				Detail: c.cfg.Protocol.String(),
			})
		} else {
			spared.push(a)
		}
		a = next
	}
	spared.release()
	if first := stalled.head; first != nil {
		if first.recoverTick == nil {
			first.recoverTick = first.recover
		}
		c.link.eng.After(recovery, first.recoverTick)
	}
}

// recover is the recovery timer strike sets on the first transfer a loss
// froze: it resumes that transfer and every one chained after it, then
// releases them.
func (tr *Transfer) recover() {
	for a := tr; a != nil; a = a.stallNext {
		a.link.Resume(a)
	}
	(&chain{head: tr}).release()
}

// chain is a list of transfers linked through stallNext.
type chain struct{ head, tail *Transfer }

// push appends a transfer to the chain.
func (ch *chain) push(a *Transfer) {
	if ch.tail == nil {
		ch.head = a
	} else {
		ch.tail.stallNext = a
	}
	ch.tail = a
}

// release unlinks the chain and drops the hold each transfer in it had.
func (ch *chain) release() {
	for a := ch.head; a != nil; {
		next := a.stallNext
		a.stallNext = nil
		a.holds--
		a.tryRecycle()
		a = next
	}
}

// onDone is the link's notification that a transfer left the wire
// (completed or cancelled): free its slot, or drop it from the queue if
// it never dispatched, then put the next queued request on the wire.
func (c *Conn) onDone(tr *Transfer) {
	for i, q := range c.queue {
		if q == tr {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
	for i, a := range c.live {
		if a == tr {
			c.live = append(c.live[:i], c.live[i+1:]...)
			c.inflight--
			c.lastUsed = c.link.eng.Now()
			break
		}
	}
	if c.established {
		c.drain()
	}
}

// Reset tears the connection down (RST, server close, stale NAT
// binding): the next request pays a fresh setup — full price on a
// first-ever connection, the resume price (0-RTT for H3) afterwards.
// In-flight sibling streams are left to finish; the caller resets the
// connection on behalf of the request that observed the failure.
func (c *Conn) Reset() {
	c.established = false
	if c.hsEv.Pending() {
		c.link.eng.Cancel(c.hsEv)
		c.hsEv = Handle{}
		c.handshaking = false
	}
	if len(c.queue) > 0 && !c.handshaking {
		c.connect()
	}
}

// FailHandshake models a connection attempt that burns its round trips
// and fails (DNS, TCP or TLS/QUIC handshake failure). The connection is
// torn down; the returned duration is what the failed attempt wasted.
func (c *Conn) FailHandshake() time.Duration {
	cost := c.connectCost()
	if cost <= 0 {
		cost = c.link.RTT // even a free setup wastes the round trip that failed
	}
	c.stats.FailedHandshakes++
	c.Reset()
	return cost
}

// Migrate models a network path change (e.g. WiFi to cellular). QUIC
// connections survive migration and revalidate the new path in one round
// trip; TCP connections die with the old 4-tuple, so the next request
// reconnects. The returned duration is the extra pre-byte delay the
// in-progress request observes.
func (c *Conn) Migrate() time.Duration {
	c.stats.Migrations++
	if c.cfg.Protocol == H3 {
		if !c.established {
			return 0
		}
		return c.link.RTT
	}
	c.Reset()
	return 0
}

// emitHandshake records the setup that just completed. The detail string
// is built only for a recorder that keeps it.
func (c *Conn) emitHandshake() {
	if !c.rec.Enabled() {
		return
	}
	detail := c.cfg.Protocol.String()
	if c.hsResumed {
		if c.cfg.ResumeRTTs <= 0 {
			detail += "-0rtt"
		} else {
			detail += "-resume"
		}
	}
	c.rec.Emit(timeline.Event{
		At:     c.link.eng.Now(),
		Dur:    c.hsCost,
		Kind:   timeline.Handshake,
		Type:   "transport",
		Track:  c.label,
		Index:  -1,
		Detail: detail,
	})
}

// transportMix is one splitmix64 output step: add the golden-ratio
// increment, then apply splitmix64's finalizer. It is not the faults
// package's mixer (MurmurHash3's fmix64, other shifts and constants);
// changing either would move every loss or fault draw.
func transportMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// transportUnit maps a hash to [0, 1).
func transportUnit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// transportLabelHash is a deterministic FNV-1a over the label.
func transportLabelHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
