package netsim

import (
	"math"
	"time"

	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// completionSlack treats a transfer as finished once less than half a byte
// remains, absorbing float rounding in the fluid integration.
const completionSlack = 0.5

// Link is a single shared bottleneck with a time-varying capacity profile.
// Concurrent transfers receive weight-proportional shares of the
// instantaneous capacity (equal shares by default).
type Link struct {
	eng     *Engine
	profile trace.Profile
	// RTT delays each transfer's first byte (request round trip). Zero by
	// default; the paper's single-server testbed had negligible RTT.
	RTT time.Duration

	active     []*Transfer
	lastUpdate time.Duration
	wake       *Event // pending recompute (completion or profile breakpoint)

	// outages are blackout windows during which capacity is zero
	// regardless of the profile (fault-injection link failures).
	outages []outageWindow

	// up, when non-nil, makes this link an access leaf behind a shared
	// Uplink: rate integration and wake scheduling are delegated to the
	// group, which allocates weighted max-min rates across the whole
	// two-tier tree (see uplink.go).
	up *Uplink

	// rec, when non-nil, receives a LinkRate event each time the observed
	// effective capacity changes while the link is being integrated.
	rec      *timeline.Recorder
	recLabel string
	lastRate float64
	rateSeen bool
}

// outageWindow is one half-open blackout interval.
type outageWindow struct {
	start, stop time.Duration
}

// NewLink creates a link driven by the engine with the given capacity
// profile.
func NewLink(eng *Engine, profile trace.Profile) *Link {
	if profile == nil {
		panic("netsim: nil profile")
	}
	return &Link{eng: eng, profile: profile}
}

// Engine returns the engine that drives this link.
func (l *Link) Engine() *Engine { return l.eng }

// ActiveTransfers returns the number of currently transferring flows.
func (l *Link) ActiveTransfers() int { return len(l.active) }

// RateAt exposes the link capacity at time t (zero inside an outage).
func (l *Link) RateAt(t time.Duration) float64 { return l.rateAt(t) }

// AddOutage blacks the link out over [start, stop): capacity drops to zero
// regardless of the profile, modelling a last-mile or radio-layer failure.
// In-flight transfers stall and resume when the window ends; pair with a
// request timeout to model clients that give up instead. Call before the
// window opens — retroactive outages do not re-integrate past traffic.
func (l *Link) AddOutage(start, stop time.Duration) {
	if stop <= start {
		return
	}
	l.outages = append(l.outages, outageWindow{start: start, stop: stop})
	l.changed()
}

// changed records a mutation of the active set or the outage windows. A
// leaf behind a shared uplink bumps the group's version so the cached
// max-min allocation is recomputed; standalone links keep no cache.
func (l *Link) changed() {
	if l.up != nil {
		l.up.version++
	}
}

// rateAt is the effective capacity: the profile's rate, masked by outages.
func (l *Link) rateAt(t time.Duration) float64 {
	for _, w := range l.outages {
		if t >= w.start && t < w.stop {
			return 0
		}
	}
	return float64(l.profile.RateAt(t))
}

// nextChange merges the profile's next breakpoint with outage boundaries.
func (l *Link) nextChange(t time.Duration) (time.Duration, bool) {
	next, ok := l.profile.NextChange(t)
	for _, w := range l.outages {
		for _, edge := range [2]time.Duration{w.start, w.stop} {
			if edge > t && (!ok || edge < next) {
				next, ok = edge, true
			}
		}
	}
	return next, ok
}

// Transfer is one in-flight download over the link.
type Transfer struct {
	link *Link
	// conn, when non-nil, is the transport connection that dispatched this
	// transfer; the link notifies it when the transfer leaves the wire
	// (completion or cancellation) so it can free the stream slot.
	conn *Conn
	// Label tags the transfer (e.g. "video"/"audio") for observers.
	Label string
	// UserData carries caller context (e.g. chunk identity).
	UserData any
	// weight is the transfer's share weight (default 1).
	weight float64

	size       int64   // total bytes
	done       float64 // bytes transferred
	started    time.Duration
	finished   time.Duration
	completed  bool
	cancelled  bool
	suspended  bool // removed from the active set by a transport stall
	onComplete func(*Transfer)

	// preDelay is the pre-byte latency (RTT + ExtraDelay) computed when the
	// transfer was prepared; activation is scheduled this far after dispatch.
	preDelay time.Duration
	// activateEv is the pending activation wake. Cancelling a transfer that
	// is still waiting out its pre-byte delay must cancel this event too:
	// activate() already refuses cancelled transfers, but the dead event
	// would otherwise linger in the queue until its due time — at fleet
	// scale (teardown cancels two transfers per session) that is tens of
	// thousands of ghost events kept alive for up to RTT+ExtraDelay each.
	activateEv *Event

	sampleEvery  time.Duration
	onSample     func(tr *Transfer, bytes float64, interval time.Duration)
	sampleMark   float64       // bytes at last sample boundary
	lastSampleAt time.Duration // time of last sample boundary
	sampleEv     *Event
	sampleTick   func() // sample, bound on first use
}

// Size returns the transfer's total size in bytes.
func (tr *Transfer) Size() int64 { return tr.size }

// Done returns the bytes transferred so far (fluid, fractional).
func (tr *Transfer) Done() float64 { return tr.done }

// Started returns the time the first byte moved (after RTT).
func (tr *Transfer) Started() time.Duration { return tr.started }

// Finished returns the completion time; zero if not complete.
func (tr *Transfer) Finished() time.Duration { return tr.finished }

// Completed reports whether the transfer finished.
func (tr *Transfer) Completed() bool { return tr.completed }

// Cancelled reports whether the transfer was aborted via Cancel. A
// cancelled transfer never completes and its OnComplete never fires.
func (tr *Transfer) Cancelled() bool { return tr.cancelled }

// Suspended reports whether the transfer is currently paused by a
// transport-level stall (see Link.Suspend).
func (tr *Transfer) Suspended() bool { return tr.suspended }

// Duration returns the transfer time (first byte to completion).
func (tr *Transfer) Duration() time.Duration {
	if !tr.completed {
		return 0
	}
	return tr.finished - tr.started
}

// Throughput returns the achieved goodput in bits/s; zero if not complete or
// instantaneous.
func (tr *Transfer) Throughput() float64 {
	d := tr.Duration()
	if d <= 0 {
		return 0
	}
	return float64(tr.size) * 8 / d.Seconds()
}

// StartOptions configures a transfer.
type StartOptions struct {
	// Label tags the transfer for observers ("video", "audio", ...).
	Label string
	// UserData carries caller context through to callbacks.
	UserData any
	// OnComplete fires when the last byte arrives.
	OnComplete func(*Transfer)
	// Weight scales this transfer's share of the bottleneck relative to
	// other active transfers (default 1). Use >1 to model aggressive
	// cross-traffic (e.g. several TCP flows behaving as one transfer).
	Weight float64
	// SampleEvery, when positive, fires OnSample every interval with the
	// bytes moved during that interval (Shaka's δ sampler). At completion a
	// final sample covers the remaining partial interval; observers that
	// must ignore partials (Shaka does) can test the interval argument
	// against SampleEvery.
	SampleEvery time.Duration
	OnSample    func(tr *Transfer, bytes float64, interval time.Duration)
	// ExtraDelay postpones the first byte beyond the link RTT — e.g. a CDN
	// edge-cache miss paying an origin round trip before bytes flow. A
	// negative value (e.g. a buggy OnRequest hook subtracting more than the
	// RTT covers) is clamped so the total pre-byte delay never goes below
	// zero: the discrete-event engine refuses to schedule into the past.
	ExtraDelay time.Duration
}

// Start begins a transfer of size bytes. The first byte moves after the
// link RTT. A zero-size transfer completes immediately upon activation.
func (l *Link) Start(size int64, opts StartOptions) *Transfer {
	tr := l.prepare(size, opts)
	l.scheduleActivation(tr)
	return tr
}

// prepare builds a transfer without scheduling its activation; transport
// connections use it to hold a request while a handshake or stream slot
// is pending. The pre-byte delay (RTT + ExtraDelay) is captured now and
// applied relative to whenever the transfer is actually dispatched.
func (l *Link) prepare(size int64, opts StartOptions) *Transfer {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	weight := opts.Weight
	if weight <= 0 {
		weight = 1
	}
	delay := l.RTT + opts.ExtraDelay
	if delay < 0 {
		delay = 0
	}
	return &Transfer{
		link:        l,
		Label:       opts.Label,
		UserData:    opts.UserData,
		weight:      weight,
		size:        size,
		onComplete:  opts.OnComplete,
		sampleEvery: opts.SampleEvery,
		onSample:    opts.OnSample,
		preDelay:    delay,
	}
}

// scheduleActivation arms the transfer's first-byte wake, preDelay from
// now. The event handle is retained so Cancel can reclaim it.
func (l *Link) scheduleActivation(tr *Transfer) {
	tr.activateEv = l.eng.After(tr.preDelay, func() {
		tr.activateEv = nil
		l.activate(tr)
	})
}

// SetRecorder attaches a flight recorder: the link emits a LinkRate event
// (labelled typ, e.g. "link" or "uplink") whenever its observed effective
// capacity changes during integration. Pass nil to detach.
func (l *Link) SetRecorder(rec *timeline.Recorder, typ string) {
	l.rec = rec
	l.recLabel = typ
	l.rateSeen = false
}

// observeRate emits a LinkRate event when the effective capacity at now
// differs from the last observed value. Rate changes are only observed
// while the link is actively integrating (idle links schedule no wakes).
func (l *Link) observeRate(now time.Duration) {
	if l.rec == nil {
		return
	}
	rate := l.rateAt(now) / 1000 // bits/s → Kbps
	//lint:ignore floateq piecewise-constant profiles repeat exact values between breakpoints; equality deduplicates, it never gates logic
	if l.rateSeen && rate == l.lastRate {
		return
	}
	l.rateSeen = true
	l.lastRate = rate
	l.rec.Emit(timeline.Event{
		At:    now,
		Kind:  timeline.LinkRate,
		Type:  l.recLabel,
		Index: -1,
		Rate:  rate,
	})
}

// Cancel aborts an in-flight (or not-yet-activated) transfer. Its
// OnComplete never fires.
func (l *Link) Cancel(tr *Transfer) {
	if tr.completed || tr.cancelled {
		return
	}
	l.advance() // may complete the transfer at this very instant
	if tr.completed {
		return
	}
	tr.cancelled = true
	tr.suspended = false
	if tr.activateEv != nil {
		l.eng.Cancel(tr.activateEv)
		tr.activateEv = nil
	}
	for i, a := range l.active {
		if a == tr {
			l.active = append(l.active[:i], l.active[i+1:]...)
			l.changed()
			break
		}
	}
	if tr.sampleEv != nil {
		l.eng.Cancel(tr.sampleEv)
		tr.sampleEv = nil
	}
	l.reschedule()
	if tr.conn != nil {
		tr.conn.onDone(tr)
	}
}

// Suspend pauses an in-flight transfer: it is removed from the active set
// (so it consumes no bandwidth share) but keeps sampling — observers see a
// stalled socket delivering zero bytes, exactly what a throughput
// estimator sees during a loss-recovery stall. Only transfers that have
// activated and are still moving can be suspended; the return value
// reports whether the transfer was actually paused.
func (l *Link) Suspend(tr *Transfer) bool {
	if tr.completed || tr.cancelled || tr.suspended {
		return false
	}
	l.advance() // may complete the transfer at this very instant
	if tr.completed {
		return false
	}
	found := false
	for i, a := range l.active {
		if a == tr {
			l.active = append(l.active[:i], l.active[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false // still waiting out its pre-byte delay
	}
	tr.suspended = true
	l.changed()
	l.reschedule()
	return true
}

// Resume returns a suspended transfer to the active set. Transfers that
// completed impossibly or were cancelled while suspended are left alone.
func (l *Link) Resume(tr *Transfer) {
	if tr.completed || tr.cancelled || !tr.suspended {
		return
	}
	l.advance()
	tr.suspended = false
	l.active = append(l.active, tr)
	l.changed()
	l.reschedule()
}

func (l *Link) activate(tr *Transfer) {
	if tr.cancelled {
		return
	}
	l.advance()
	tr.started = l.eng.Now()
	if tr.size == 0 {
		tr.completed = true
		tr.finished = l.eng.Now()
		if tr.onComplete != nil {
			tr.onComplete(tr)
		}
		if tr.conn != nil {
			tr.conn.onDone(tr)
		}
		return
	}
	l.active = append(l.active, tr)
	l.changed()
	tr.lastSampleAt = tr.started
	if tr.sampleEvery > 0 && tr.onSample != nil {
		tr.scheduleSample()
	}
	l.reschedule()
}

// scheduleSample arms the next δ-sample tick. The tick func is bound once
// per transfer, so a warm tick allocates nothing.
func (tr *Transfer) scheduleSample() {
	if tr.sampleTick == nil {
		tr.sampleTick = tr.sample
	}
	tr.sampleEv = tr.link.eng.After(tr.sampleEvery, tr.sampleTick)
}

// sample reports the bytes moved since the last tick and re-arms.
func (tr *Transfer) sample() {
	tr.link.advance()
	if tr.completed || tr.cancelled {
		return
	}
	bytes := tr.done - tr.sampleMark
	tr.sampleMark = tr.done
	tr.lastSampleAt = tr.link.eng.Now()
	tr.onSample(tr, bytes, tr.sampleEvery)
	tr.scheduleSample()
}

// advance integrates all active transfers from lastUpdate to now at the
// capacity that applied over that span. The link guarantees (via wake
// events at profile breakpoints) that capacity is constant over the span.
// Leaves behind a shared uplink delegate to the group, whose allocation
// couples every member's transfers.
func (l *Link) advance() {
	if l.up != nil {
		l.up.advance()
		return
	}
	l.advanceSolo()
}

func (l *Link) advanceSolo() {
	now := l.eng.Now()
	l.observeRate(now)
	if now <= l.lastUpdate {
		l.lastUpdate = now
		return
	}
	if len(l.active) > 0 {
		rate := l.rateAt(l.lastUpdate)
		totalWeight := 0.0
		for _, tr := range l.active {
			totalWeight += tr.weight
		}
		elapsed := (now - l.lastUpdate).Seconds()
		for _, tr := range l.active {
			share := rate * tr.weight / totalWeight
			tr.done += share * elapsed / 8
			if tr.done > float64(tr.size) {
				tr.done = float64(tr.size)
			}
		}
	}
	l.lastUpdate = now
	l.finishCompleted()
}

// finishCompleted removes and notifies transfers that have reached their
// full size.
func (l *Link) finishCompleted() {
	// Most calls (every sample tick) find nothing finished; leave the active
	// slice untouched then rather than rewriting it in place.
	first := -1
	for i, tr := range l.active {
		if float64(tr.size)-tr.done < completionSlack {
			first = i
			break
		}
	}
	if first < 0 {
		return
	}
	var finished []*Transfer
	remaining := l.active[:first]
	for _, tr := range l.active[first:] {
		if float64(tr.size)-tr.done < completionSlack {
			tr.done = float64(tr.size)
			tr.completed = true
			tr.finished = l.eng.Now()
			if tr.sampleEv != nil {
				l.eng.Cancel(tr.sampleEv)
				tr.sampleEv = nil
			}
			finished = append(finished, tr)
		} else {
			remaining = append(remaining, tr)
		}
	}
	l.active = remaining
	if len(finished) > 0 {
		l.changed()
	}
	for _, tr := range finished {
		// Report the final partial sampling interval so byte-flow observers
		// account for every byte.
		if tr.onSample != nil && tr.sampleEvery > 0 {
			if bytes := tr.done - tr.sampleMark; bytes > 0 {
				tr.sampleMark = tr.done
				tr.onSample(tr, bytes, tr.finished-tr.lastSampleAt)
			}
		}
		if tr.onComplete != nil {
			tr.onComplete(tr)
		}
		if tr.conn != nil {
			tr.conn.onDone(tr)
		}
	}
}

// reschedule computes the next interesting instant (first completion or
// profile breakpoint) and arms a wake event for it. Uplink leaves share
// one group wake instead of per-link wakes.
func (l *Link) reschedule() {
	if l.up != nil {
		l.up.reschedule()
		return
	}
	l.rescheduleSolo()
}

func (l *Link) rescheduleSolo() {
	if l.wake != nil {
		l.eng.Cancel(l.wake)
		l.wake = nil
	}
	// With no active transfers there is nothing to integrate; the next
	// activation re-arms the wake. (Arming breakpoint wakes while idle would
	// keep cyclic profiles generating events forever.)
	if len(l.active) == 0 {
		return
	}
	now := l.eng.Now()
	next := time.Duration(math.MaxInt64)
	if bp, ok := l.nextChange(now); ok && bp < next {
		next = bp
	}
	{
		rate := l.rateAt(now)
		if rate > 0 {
			totalWeight := 0.0
			for _, tr := range l.active {
				totalWeight += tr.weight
			}
			for _, tr := range l.active {
				share := rate * tr.weight / totalWeight
				remaining := float64(tr.size) - tr.done
				eta := now + time.Duration(remaining*8/share*float64(time.Second))
				if eta <= now {
					eta = now + 1 // guarantee progress
				}
				if eta < next {
					next = eta
				}
			}
		}
	}
	if next == time.Duration(math.MaxInt64) {
		return
	}
	l.wake = l.eng.Schedule(next, func() {
		l.wake = nil
		l.advance()
		l.reschedule()
	})
}

// StartCrossTraffic occupies the link with a persistent competing flow of
// the given weight between start and stop — e.g. another household device
// streaming. It is implemented as a sequence of large transfers so the
// fair-sharing machinery applies unchanged.
func (l *Link) StartCrossTraffic(weight float64, start, stop time.Duration) {
	if weight <= 0 || stop <= start {
		return
	}
	const blockBytes = 1 << 30
	var tr *Transfer
	stopped := false
	var begin func()
	begin = func() {
		tr = l.Start(blockBytes, StartOptions{
			Label:  "cross-traffic",
			Weight: weight,
			OnComplete: func(*Transfer) {
				// A block drained before the window closed (fast link or long
				// window): start the next one so the flow persists to stop.
				if !stopped && l.eng.Now() < stop {
					begin()
				}
			},
		})
	}
	l.eng.Schedule(start, func() { begin() })
	l.eng.Schedule(stop, func() {
		stopped = true
		if tr != nil {
			l.Cancel(tr)
		}
	})
}
