package netsim

import (
	"math"
	"time"

	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// Uplink is the shared second tier of a two-tier topology: several access
// links (one per client) funnel into one edge uplink, so a transfer's
// throughput is bounded both by its weighted share of its own access link
// and by the fleet-wide weighted share of the uplink. Rates follow
// weighted max-min fairness via progressive filling — the steady state of
// many long-lived TCP flows crossing a shared aggregation link.
//
// Attached leaves advance and reschedule as one group: the engine sees a
// single wake event covering the earliest completion or capacity
// breakpoint anywhere in the tree.
type Uplink struct {
	eng     *Engine
	profile trace.Profile
	members []*Link

	lastUpdate time.Duration
	wake       Handle
	wakeTick   func() // onWake, bound once in NewUplink

	// version counts active-set and outage mutations across the members
	// (see Link.changed); the cached allocation is stale once it moves.
	version uint64
	// legs holds one leg per member, in member order. The in-flight
	// transfers' state lies flat in leg order: done, size and weight hold
	// the bytes done, sizes and share weights of member 0's active
	// transfers in order, then member 1's, and so on. While a transfer is
	// on the wire its bytes done live here (see Transfer.slot), so a
	// δ-tick integrates the tree in one pass over contiguous arrays. A
	// transfer joining or leaving the wire moves the entries after its own
	// by one (see Link.join and Link.leave); nothing is rebuilt.
	legs               []leg
	done, size, weight []float64
	// rates holds the last allocation, computed at ratesAt under version
	// ratesVersion. It stays exact for every t in [ratesAt, ratesUntil):
	// ratesUntil is the earliest capacity breakpoint of the uplink or any
	// loaded leaf after ratesAt, so no input of the fill changes before it.
	// The zero value (an empty span) is a miss.
	ratesVersion        uint64
	ratesAt, ratesUntil time.Duration

	// rates is the allocation, one rate per in-flight transfer in leg
	// order, reused across recomputes so steady-state event handling
	// allocates nothing.
	rates []float64
	// span caches the uplink profile's rate between breakpoints.
	span capSpan
	// filled, when non-nil, is called after every recompute of rates with
	// the instant it was computed for; tests check each fill against a
	// reference. integrated, when non-nil, is called after every advance
	// that integrated transfers, with the span's length in seconds; tests
	// replay the span on a reference integrator.
	filled     func(t time.Duration)
	integrated func(elapsed float64)

	// rec, when non-nil, receives a LinkRate event each time the observed
	// uplink capacity changes while the group is being integrated.
	rec      *timeline.Recorder
	recLabel string
	lastRate float64
	rateSeen bool
	// recordedLeaves counts members with a recorder attached (maintained
	// by Link.SetRecorder); at zero, observeRate skips the member walk.
	recordedLeaves int

	// work counts the solver's work since the uplink was made (see Work).
	work SolverWork
}

// SolverWork counts what an uplink's fluid solver has done since the
// uplink was made, across every Reset. The counts depend only on the
// simulation, not on the machine or the code's speed, so they measure the
// solver's work the way allocation counts measure its memory.
type SolverWork struct {
	// Advances counts the integrations of the tree over a span with
	// transfers in flight.
	Advances uint64
	// Updates counts transfer updates: one per in-flight transfer per
	// advance.
	Updates uint64
	// Fills counts recomputes of the max-min allocation.
	Fills uint64
}

// Work returns the solver's work counts.
func (u *Uplink) Work() SolverWork { return u.work }

// NewUplink creates the shared uplink constraint with the given capacity
// profile. Access leaves join via NewLeaf.
func NewUplink(eng *Engine, profile trace.Profile) *Uplink {
	if profile == nil {
		panic("netsim: nil uplink profile")
	}
	u := &Uplink{eng: eng, profile: profile}
	u.wakeTick = u.onWake
	return u
}

// NewLeaf creates an access link behind this uplink: transfers started on
// it obey the leaf profile, the shared uplink, and weighted fairness
// against every other transfer in the tree. After Reset it recycles the
// leaves of the last simulation, in order, keeping their slices' backing
// arrays.
func (u *Uplink) NewLeaf(profile trace.Profile) *Link {
	if profile == nil {
		panic("netsim: nil profile")
	}
	var l *Link
	if n := len(u.members); n < cap(u.members) {
		l = u.members[:n+1][n] // a leaf Reset let go of, or nil
	}
	if l == nil {
		l = new(Link)
	}
	*l = Link{eng: u.eng, profile: profile, up: u, idx: int32(len(u.members)),
		active: l.active[:0], finished: l.finished[:0], outages: l.outages[:0]}
	u.members = append(u.members, l)
	u.legs = append(u.legs, leg{off: int32(len(u.done))})
	return l
}

// Reset empties the uplink for another simulation on its engine, which
// must have been Reset first: the uplink's capacity follows profile from
// then on, the clock restarts at zero, no leaf is attached, no recorder
// either, and later NewLeaf calls recycle the old leaves. Links of the
// last simulation must not be used again.
func (u *Uplink) Reset(profile trace.Profile) {
	if profile == nil {
		panic("netsim: nil uplink profile")
	}
	// Transfers the last simulation left on the wire take their bytes
	// done back, so none keeps a slot in the arrays the next one fills.
	for i, l := range u.members {
		for j, tr := range l.active {
			tr.done, tr.slot = u.done[int(u.legs[i].off)+j], 0
		}
	}
	u.profile = profile
	u.span = capSpan{}
	u.members, u.legs = u.members[:0], u.legs[:0]
	u.done, u.size, u.weight = u.done[:0], u.size[:0], u.weight[:0]
	u.lastUpdate = 0
	u.wake = Handle{}
	// A new version makes the cached rates stale.
	u.version++
	u.SetRecorder(nil, "")
	u.recordedLeaves = 0
}

// leg is one member of the tree, loaded while it has transfers in flight.
// It holds no pointers, so writing it costs no write barriers.
type leg struct {
	// off and n are the member's active transfers' range in the flat
	// arrays: [off, off+n).
	off, n int32
	// weight is the member's transfer weights summed in transfer order —
	// the per-weight divisor of its access constraint.
	weight float64
	// remain, level and frozen are the fill's state of the leg's
	// constraint: its remaining capacity, that per unit of weight, and
	// whether it has saturated.
	remain, level float64
	frozen        bool
	// span caches the member's effective capacity (see Link.span).
	span capSpan
}

// activeTotal returns the number of in-flight transfers across all
// members.
func (u *Uplink) activeTotal() int { return len(u.done) }

// finishing reports whether some transfer of member i is within
// completionSlack of its size.
func (u *Uplink) finishing(i int) bool {
	g := u.legs[i]
	size := u.size[g.off : g.off+g.n]
	for k, d := range u.done[g.off : g.off+g.n] {
		if size[k]-d < completionSlack {
			return true
		}
	}
	return false
}

// alloc returns the weighted max-min rate (bits/s) of every active
// transfer at time t, flattened in member order. While no member's active
// set has changed and t lies before the next capacity breakpoint, the
// inputs of the fill are those of the last call, so the cached vector is
// returned as is; otherwise it is recomputed.
//
// Progressive filling: raise every unfrozen transfer's per-weight rate in
// lockstep until some constraint — the uplink, or a loaded leg's access
// link — saturates, freeze the transfers behind it at the fill level, and
// repeat with the remaining capacity. A saturated constraint freezes every
// unfrozen transfer it carries, and a leg's transfers share both of their
// constraints, so they always freeze together: the fill tracks one frozen
// flag and one remaining capacity per leg, not per transfer. The uplink
// carries every unfrozen transfer, so the fill level is always finite, and
// each round freezes at least one leg — the loop runs at most len(legs)+1
// rounds.
//
// Two sums keep the order of a per-transfer fill, so the rates are the
// same to the bit: the uplink's weight is summed transfer by transfer
// over the unfrozen legs (adding the legs' totals would round
// differently), and the uplink's remaining capacity is drawn down
// transfer by transfer.
func (u *Uplink) alloc(t time.Duration, total int) []float64 {
	if u.ratesVersion == u.version && u.ratesAt <= t && t < u.ratesUntil {
		return u.rates
	}
	u.work.Fills++
	u.rates = growF(u.rates, total)
	rates, weights, legs := u.rates, u.weight, u.legs
	// The fill's inputs are the capacities at t, each constant until its
	// next breakpoint; the first of those ends the allocation's span. Idle
	// leaves carry no weight, so their capacity is not an input: their legs
	// start frozen.
	if !u.span.covers(t) {
		u.span = capSpan{rate: float64(u.profile.RateAt(t)), from: t, until: math.MaxInt64}
		if bp, ok := u.profile.NextChange(t); ok {
			u.span.until = bp
		}
	}
	remain, until := u.span.rate, u.span.until
	for i := range legs {
		g := &legs[i]
		g.frozen = g.n == 0
		if g.frozen {
			continue
		}
		if !g.span.covers(t) {
			g.span = u.members[i].span(t)
		}
		g.remain = g.span.rate
		until = min(until, g.span.until)
	}
	u.ratesVersion, u.ratesAt, u.ratesUntil = u.version, t, until
	for round := 0; ; round++ {
		// The uplink's weight: the unfrozen transfers', in order. In the
		// first round no loaded leg is frozen, and idle legs hold no
		// transfers, so that is every transfer.
		weight, unfrozen := 0.0, round == 0
		if unfrozen {
			for _, w := range weights[:total] {
				weight += w
			}
		} else {
			for i := range legs {
				g := &legs[i]
				if g.frozen {
					continue
				}
				unfrozen = true
				for _, w := range weights[g.off : g.off+g.n] {
					weight += w
				}
			}
		}
		if !unfrozen {
			break
		}
		// Fill level: the tightest per-weight capacity among loaded
		// constraints. The uplink carries every unfrozen transfer, so the
		// minimum exists.
		fill := remain / weight
		for i := range legs {
			if g := &legs[i]; !g.frozen {
				g.level = g.remain / g.weight
				if g.level < fill {
					fill = g.level
				}
			}
		}
		if fill < 0 {
			fill = 0
		}
		// Whether the uplink saturates at this fill level is decided before
		// its remaining capacity moves. The ratio comparison is exact for
		// the arg-min (same division that produced fill) and catches ties.
		if remain/weight <= fill {
			// The uplink saturates: every unfrozen leg freezes at this
			// level, and no later round reads the remaining capacities.
			for i := range legs {
				if g := &legs[i]; !g.frozen {
					for k := g.off; k < g.off+g.n; k++ {
						rates[k] = fill * weights[k]
					}
				}
			}
			break
		}
		for i := range legs {
			g := &legs[i]
			if g.frozen || !(g.level <= fill) {
				continue
			}
			g.frozen = true
			for k := g.off; k < g.off+g.n; k++ {
				r := fill * weights[k]
				rates[k] = r
				remain -= r
			}
		}
		if remain < 0 {
			remain = 0
		}
		for i := range legs {
			if g := &legs[i]; !g.frozen && g.remain < 0 {
				g.remain = 0
			}
		}
	}
	if u.filled != nil {
		u.filled(t)
	}
	return rates
}

// capSpan caches a capacity over the span [from, until) between two of
// its breakpoints, where it cannot move. The zero value (an empty span)
// is a miss.
type capSpan struct {
	rate        float64
	from, until time.Duration
}

// covers reports whether the cached capacity holds at t.
func (c *capSpan) covers(t time.Duration) bool { return c.from <= t && t < c.until }

// SetRecorder attaches a flight recorder: the uplink emits a LinkRate
// event (labelled typ, e.g. "uplink") whenever its observed capacity
// changes during integration. Pass nil to detach.
func (u *Uplink) SetRecorder(rec *timeline.Recorder, typ string) {
	u.rec = rec
	u.recLabel = typ
	u.rateSeen = false
}

// observeRate emits a LinkRate event when the uplink capacity at now
// differs from the last observed value, then lets every member leaf do the
// same for its own access capacity. Leaves without a recorder emit
// nothing, so the walk is skipped while none has one.
func (u *Uplink) observeRate(now time.Duration) {
	if u.rec != nil {
		rate := float64(u.profile.RateAt(now)) / 1000 // bits/s → Kbps
		//lint:ignore floateq piecewise-constant profiles repeat exact values between breakpoints; equality deduplicates, it never gates logic
		if !u.rateSeen || rate != u.lastRate {
			u.rateSeen = true
			u.lastRate = rate
			u.rec.Emit(timeline.Event{
				At:    now,
				Kind:  timeline.LinkRate,
				Type:  u.recLabel,
				Index: -1,
				Rate:  rate,
			})
		}
	}
	if u.recordedLeaves == 0 {
		return
	}
	for _, l := range u.members {
		l.observeRate(now)
	}
}

// advance integrates every member's transfers from lastUpdate to now at
// the allocation that applied over the span (group wake events at every
// completion and breakpoint guarantee the allocation was constant), then
// completes finished transfers member by member.
//
// Most calls are δ-sample ticks that finish nothing, so the completion
// pass runs only when the integration left some transfer within
// completionSlack. Skipping it otherwise is exact. A transfer joins the
// active set at least one byte short of its size: activate completes
// zero-size transfers on the spot, and Resume re-admits only a transfer
// that Suspend found unfinished. Only this loop moves done, and each
// completion pass removes every transfer inside the slack. So when no
// transfer is inside it after the loop, every member's finishCompleted
// would find nothing, fire no callback and mutate nothing.
func (u *Uplink) advance() {
	now := u.eng.Now()
	u.observeRate(now)
	if now <= u.lastUpdate {
		return
	}
	first := -1 // the first transfer the integration left inside the slack
	if total := u.activeTotal(); total > 0 {
		rates := u.alloc(u.lastUpdate, total)
		elapsed := (now - u.lastUpdate).Seconds()
		u.work.Advances++
		u.work.Updates += uint64(total)
		done, size := u.done[:total], u.size[:total]
		rates = rates[:total]
		for k, d := range done {
			d += rates[k] * elapsed / 8
			if d > size[k] {
				d = size[k]
			}
			done[k] = d
			if size[k]-d < completionSlack && first < 0 {
				first = k
			}
		}
		if u.integrated != nil {
			u.integrated(elapsed)
		}
	}
	u.lastUpdate = now
	if first < 0 {
		return
	}
	// Until a completion pass runs a callback, nothing moves: the members
	// wholly before the first transfer inside the slack have nothing to
	// complete.
	m := 0
	for int(u.legs[m].off+u.legs[m].n) <= first {
		m++
	}
	for i, l := range u.members[m:] {
		if u.finishing(m + i) {
			l.finishCompleted()
		}
	}
}

// reschedule arms one wake event for the whole tree: the earliest transfer
// completion at current allocation rates, or the next capacity breakpoint
// (uplink profile, or any loaded leaf's profile/outage edge).
func (u *Uplink) reschedule() {
	u.eng.Cancel(u.wake)
	u.wake = Handle{}
	total := u.activeTotal()
	if total == 0 {
		return
	}
	now := u.eng.Now()
	rates := u.alloc(now, total)
	// The allocation holds until ratesUntil, the first breakpoint after
	// ratesAt ≤ now; with no breakpoint in between it is also the first
	// after now.
	next := u.ratesUntil
	done, size := u.done[:total], u.size[:total]
	for k, r := range rates[:total] {
		if r > 0 {
			remaining := size[k] - done[k]
			eta := now + time.Duration(remaining*8/r*float64(time.Second))
			if eta <= now {
				eta = now + 1 // guarantee progress
			}
			if eta < next {
				next = eta
			}
		}
	}
	if next == time.Duration(math.MaxInt64) {
		return
	}
	u.wake = u.eng.Schedule(next, u.wakeTick)
}

// onWake is the group's recompute at a completion or breakpoint.
func (u *Uplink) onWake() {
	u.wake = Handle{}
	u.advance()
	u.reschedule()
}

// growF returns s resized to n, reallocating only on capacity growth.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
