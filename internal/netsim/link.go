package netsim

import (
	"math"
	"slices"
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
//
// Every link is an access leaf of an Uplink, which integrates its
// transfers and schedules its wakes. A standalone link (NewLink) is the
// only leaf of an unbounded uplink, so its own profile always binds.
type Link struct {
	eng     *Engine
	profile trace.Profile
	// RTT delays each transfer's first byte (request round trip). Zero by
	// default; the paper's single-server testbed had negligible RTT.
	RTT time.Duration

	active []*Transfer
	// finished is finishCompleted's scratch list of transfers to notify.
	finished []*Transfer
	// sampleLane is the engine's lane for the last sampling interval a
	// transfer asked for (see scheduleSample).
	sampleLane *Lane

	// outages are blackout windows during which capacity is zero
	// regardless of the profile (fault-injection link failures).
	outages []outageWindow

	// up is the uplink this link is a leaf of: it allocates weighted
	// max-min rates across its whole two-tier tree, integrates them and
	// arms the tree's one wake (see uplink.go). idx is the link's index in
	// its members and legs.
	up  *Uplink
	idx int32

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

// NewLink creates a standalone link driven by the engine with the given
// capacity profile: the only leaf of an uplink whose capacity never binds.
func NewLink(eng *Engine, profile trace.Profile) *Link {
	return NewUplink(eng, trace.Fixed(math.MaxInt64)).NewLeaf(profile)
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
	l.up.legs[l.idx].span = capSpan{}
	l.changed()
}

// changed records a mutation of the active set or the outage windows: it
// bumps the uplink's version so the cached max-min allocation is
// recomputed.
func (l *Link) changed() {
	l.up.version++
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

// span returns the effective capacity at t with the span it holds over:
// up to the first breakpoint after t that can move it — the profile's
// next, or an outage edge — or math.MaxInt64 for none.
func (l *Link) span(t time.Duration) capSpan {
	c := capSpan{rate: l.rateAt(t), from: t, until: math.MaxInt64}
	if bp, ok := l.profile.NextChange(t); ok {
		c.until = bp
	}
	for _, w := range l.outages {
		for _, edge := range [2]time.Duration{w.start, w.stop} {
			if edge > t && edge < c.until {
				c.until = edge
			}
		}
	}
	return c
}

// join puts tr on the wire at the end of the link's active set. Its entry
// goes in at the end of the link's leg in the uplink's flat arrays, and
// the later legs' entries move up by one.
func (l *Link) join(tr *Transfer) {
	u := l.up
	g := &u.legs[l.idx]
	p := int(g.off + g.n)
	u.done = slices.Insert(u.done, p, tr.done)
	u.size = slices.Insert(u.size, p, float64(tr.size))
	u.weight = slices.Insert(u.weight, p, tr.weight)
	// Adding to the end of the sum keeps it in transfer order.
	g.weight += tr.weight
	g.n++
	for k := int(l.idx) + 1; k < len(u.legs); k++ {
		u.legs[k].off++
	}
	l.active = append(l.active, tr)
	tr.slot = int32(len(l.active))
	l.changed()
}

// leave takes the link's i-th active transfer off the wire: its bytes done
// go back to it, and the entries after its own in the uplink's flat arrays
// and in the active set move down by one.
func (l *Link) leave(i int) {
	u := l.up
	g := &u.legs[l.idx]
	p := int(g.off) + i
	tr := l.active[i]
	tr.done, tr.slot = u.done[p], 0
	u.done = slices.Delete(u.done, p, p+1)
	u.size = slices.Delete(u.size, p, p+1)
	u.weight = slices.Delete(u.weight, p, p+1)
	g.n--
	g.weight = 0
	for _, w := range u.weight[g.off : g.off+g.n] {
		g.weight += w
	}
	for k := int(l.idx) + 1; k < len(u.legs); k++ {
		u.legs[k].off--
	}
	l.active = slices.Delete(l.active, i, i+1)
	for j := i; j < len(l.active); j++ {
		l.active[j].slot = int32(j + 1)
	}
	l.changed()
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
	// weight is the transfer's share weight (default 1).
	weight float64

	size int64 // total bytes
	// done is the bytes transferred while the transfer is off the wire.
	// On it, slot is 1 + its index in the link's active set, its bytes
	// done live in the uplink's flat arrays (see Link.join), and done is
	// written back when it leaves (see Link.leave); slot is 0 off the wire.
	done       float64
	slot       int32
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
	activateEv   Handle
	activateTick func() // activation wake, bound once per Transfer

	sampleEvery  time.Duration
	onSample     func(tr *Transfer, bytes float64, interval time.Duration)
	sampleMark   float64       // bytes at last sample boundary
	lastSampleAt time.Duration // time of last sample boundary
	sampleEv     Handle
	sampleTick   func() // sample, bound on first use
	strikeTick   func() // transport loss strike, bound on first use
	recoverTick  func() // loss recovery of the chain this heads, bound on first use
	// stallNext links the transfer into a transport loss's chain: the
	// streams one loss hit, then the ones it froze (see Conn.strike).
	stallNext *Transfer

	// released marks that the owner let go of the transfer (Release).
	// holds counts the link-side references that can still reach it
	// without an event handle: a completion being delivered, a sample
	// callback running, a transport strike or recovery timer. The link
	// recycles a released transfer once it is off the wire and holds is
	// zero (see tryRecycle).
	released bool
	holds    int
}

// Size returns the transfer's total size in bytes.
func (tr *Transfer) Size() int64 { return tr.size }

// Done returns the bytes transferred so far (fluid, fractional).
func (tr *Transfer) Done() float64 {
	if tr.slot > 0 {
		u := tr.link.up
		return u.done[u.legs[tr.link.idx].off+tr.slot-1]
	}
	return tr.done
}

// Started returns the time the first byte moved (after RTT).
func (tr *Transfer) Started() time.Duration { return tr.started }

// Finished returns the completion time; zero if not complete.
func (tr *Transfer) Finished() time.Duration { return tr.finished }

// Completed reports whether the transfer finished.
func (tr *Transfer) Completed() bool { return tr.completed }

// Cancelled reports whether the transfer was aborted via Cancel. A
// cancelled transfer never completes and its OnComplete never fires.
func (tr *Transfer) Cancelled() bool { return tr.cancelled }

// Duration returns the transfer time (first byte to completion).
func (tr *Transfer) Duration() time.Duration {
	if !tr.completed {
		return 0
	}
	return tr.finished - tr.started
}

// StartOptions configures a transfer.
type StartOptions struct {
	// Label tags the transfer for observers ("video", "audio", ...).
	Label string
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
// applied relative to whenever the transfer is actually dispatched. A
// transfer released on any of the engine's links is reused when one is
// free: it is rebound to this link, its bound callbacks carry over, and
// everything else starts from zero.
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
	var tr *Transfer
	if free := l.eng.transfers; len(free) > 0 {
		tr = free[len(free)-1]
		free[len(free)-1] = nil
		l.eng.transfers = free[:len(free)-1]
	} else {
		tr = &Transfer{}
		tr.activateTick = tr.activateNow
	}
	*tr = Transfer{
		link:         l,
		Label:        opts.Label,
		weight:       weight,
		size:         size,
		onComplete:   opts.OnComplete,
		sampleEvery:  opts.SampleEvery,
		onSample:     opts.OnSample,
		preDelay:     delay,
		activateTick: tr.activateTick,
		sampleTick:   tr.sampleTick,
		strikeTick:   tr.strikeTick,
		recoverTick:  tr.recoverTick,
	}
	return tr
}

// Release hands a transfer back to the engine for reuse by a later Start
// on any of its links: the owner declares it will not touch tr, nor
// receive its callbacks, again. A transfer still on the wire, or still
// reachable from a pending callback or timer, stays as it is until it is
// finished with; only then is it recycled. Transfers that are never
// released are simply garbage collected.
func (tr *Transfer) Release() {
	tr.released = true
	tr.tryRecycle()
}

// tryRecycle puts a released transfer on its engine's freelist once nothing
// can reach it any more: it is off the wire (completed or cancelled), no
// completion or sample callback is running on it, no transport timer
// holds it, and neither its activation nor its sample tick is pending.
func (tr *Transfer) tryRecycle() {
	if !tr.released || tr.holds > 0 || !(tr.completed || tr.cancelled) ||
		tr.activateEv.Pending() || tr.sampleEv.Pending() {
		return
	}
	tr.released = false // recycle once
	// Drop the owner's callbacks and connection while the transfer is pooled.
	tr.onComplete, tr.onSample, tr.conn = nil, nil, nil
	eng := tr.link.eng
	eng.transfers = append(eng.transfers, tr)
}

// scheduleActivation arms the transfer's first-byte wake, preDelay from
// now. The event handle is retained so Cancel can reclaim it.
func (l *Link) scheduleActivation(tr *Transfer) {
	tr.activateEv = l.eng.After(tr.preDelay, tr.activateTick)
}

// activateNow is the activation wake.
func (tr *Transfer) activateNow() {
	tr.activateEv = Handle{}
	tr.link.activate(tr)
}

// SetRecorder attaches a flight recorder: the link emits a LinkRate event
// (labelled typ, e.g. "link" or "uplink") whenever its observed effective
// capacity changes during integration. Pass nil to detach.
func (l *Link) SetRecorder(rec *timeline.Recorder, typ string) {
	if (rec == nil) != (l.rec == nil) {
		if rec != nil {
			l.up.recordedLeaves++
		} else {
			l.up.recordedLeaves--
		}
	}
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
	l.up.advance() // may complete the transfer at this very instant
	if tr.completed {
		return
	}
	tr.cancelled = true
	tr.suspended = false
	l.eng.Cancel(tr.activateEv)
	tr.activateEv = Handle{}
	if tr.slot > 0 {
		l.leave(int(tr.slot) - 1)
	}
	l.eng.Cancel(tr.sampleEv)
	tr.sampleEv = Handle{}
	l.up.reschedule()
	if tr.conn != nil {
		tr.conn.onDone(tr)
	}
	tr.tryRecycle()
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
	l.up.advance() // may complete the transfer at this very instant
	if tr.completed {
		return false
	}
	if tr.slot == 0 {
		return false // still waiting out its pre-byte delay
	}
	l.leave(int(tr.slot) - 1)
	tr.suspended = true
	l.up.reschedule()
	return true
}

// Resume returns a suspended transfer to the active set. Transfers that
// completed impossibly or were cancelled while suspended are left alone.
func (l *Link) Resume(tr *Transfer) {
	if tr.completed || tr.cancelled || !tr.suspended {
		return
	}
	l.up.advance()
	tr.suspended = false
	l.join(tr)
	l.up.reschedule()
}

func (l *Link) activate(tr *Transfer) {
	if tr.cancelled {
		return
	}
	l.up.advance()
	tr.started = l.eng.Now()
	if tr.size == 0 {
		tr.completed = true
		tr.finished = l.eng.Now()
		tr.holds++ // the owner may Release it from inside OnComplete
		if tr.onComplete != nil {
			tr.onComplete(tr)
		}
		if tr.conn != nil {
			tr.conn.onDone(tr)
		}
		tr.holds--
		tr.tryRecycle()
		return
	}
	l.join(tr)
	tr.lastSampleAt = tr.started
	if tr.sampleEvery > 0 && tr.onSample != nil {
		tr.scheduleSample()
	}
	l.up.reschedule()
}

// scheduleSample arms the next δ-sample tick on the engine's lane for the
// interval, which the link caches. The tick func is bound once per
// transfer, so a warm tick allocates nothing.
func (tr *Transfer) scheduleSample() {
	if tr.sampleTick == nil {
		tr.sampleTick = tr.sample
	}
	l := tr.link
	if l.sampleLane == nil || l.sampleLane.d != tr.sampleEvery {
		l.sampleLane = l.eng.Lane(tr.sampleEvery)
	}
	tr.sampleEv = l.sampleLane.Add(tr.sampleTick)
}

// sample reports the bytes moved since the last tick and re-arms. The
// tick holds the transfer: a completion that advance delivers, or the
// callback itself, may lead the owner to Release it, and the tick still
// reads it afterwards.
func (tr *Transfer) sample() {
	tr.holds++
	tr.link.up.advance()
	if !tr.completed && !tr.cancelled {
		done := tr.Done()
		bytes := done - tr.sampleMark
		tr.sampleMark = done
		tr.lastSampleAt = tr.link.eng.Now()
		tr.onSample(tr, bytes, tr.sampleEvery)
		tr.scheduleSample()
	}
	tr.holds--
	tr.tryRecycle()
}

// finishCompleted removes and notifies transfers that have reached their
// full size. The notify list is the link's scratch slice, detached while
// it is walked: a callback may re-enter finishCompleted on this link (a
// completion that starts or cancels a sibling transfer), and the nested
// call must not overwrite the outer list. Each finished transfer is held
// until its notifications are done, so an owner that releases it from
// OnComplete cannot have it recycled under the walk.
func (l *Link) finishCompleted() {
	finished := l.finished[:0]
	l.finished = nil
	for i := 0; i < len(l.active); {
		tr := l.active[i]
		if float64(tr.size)-tr.Done() >= completionSlack {
			i++
			continue
		}
		l.leave(i)
		tr.done = float64(tr.size)
		tr.completed = true
		tr.finished = l.eng.Now()
		l.eng.Cancel(tr.sampleEv)
		tr.sampleEv = Handle{}
		tr.holds++
		finished = append(finished, tr)
	}
	for i, tr := range finished {
		finished[i] = nil
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
		tr.holds--
		tr.tryRecycle()
	}
	l.finished = finished[:0]
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
