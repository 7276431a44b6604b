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
	// (see Link.changed); the cached allocation, transfer count and legs
	// are stale once it moves.
	version uint64
	// total is the in-flight transfer count across the members and legs
	// lists the loaded members in member order, both valid while
	// totalVersion equals version.
	total        int
	totalVersion uint64
	legs         []leg
	// rates holds the last allocation, computed at ratesAt under version
	// ratesVersion. It stays exact for every t in [ratesAt, ratesUntil):
	// ratesUntil is the earliest capacity breakpoint of the uplink or any
	// loaded leaf after ratesAt, so no input of the fill changes before it.
	// The zero value (an empty span) is a miss.
	ratesVersion        uint64
	ratesAt, ratesUntil time.Duration

	// rates is the allocation, one rate per in-flight transfer in member
	// order, reused across recomputes so steady-state event handling
	// allocates nothing.
	rates []float64
	// filled, when non-nil, is called after every recompute of rates with
	// the instant it was computed for; tests check each fill against a
	// reference.
	filled func(t time.Duration)

	// rec, when non-nil, receives a LinkRate event each time the observed
	// uplink capacity changes while the group is being integrated.
	rec      *timeline.Recorder
	recLabel string
	lastRate float64
	rateSeen bool
	// recordedLeaves counts members with a recorder attached (maintained
	// by Link.SetRecorder); at zero, observeRate skips the member walk.
	recordedLeaves int
}

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
	*l = Link{eng: u.eng, profile: profile, up: u,
		active: l.active[:0], finished: l.finished[:0], outages: l.outages[:0]}
	u.members = append(u.members, l)
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
	u.profile = profile
	u.members = u.members[:0]
	u.lastUpdate = 0
	u.wake = Handle{}
	// A new version makes the cached transfer count, legs and rates stale.
	u.version++
	u.SetRecorder(nil, "")
	u.recordedLeaves = 0
}

// leg is one loaded member of the tree: a leaf with transfers in flight.
// It holds no pointers, so rebuilding the list costs no write barriers.
type leg struct {
	member int32 // index in Uplink.members
	off    int32 // index in rates of the member's first transfer
	// weight is the member's transfer weights summed in transfer order —
	// the per-weight divisor of its access constraint.
	weight float64
	// remain and frozen are the fill's state of the leg's constraint.
	remain float64
	frozen bool
}

// activeTotal counts in-flight transfers across all members and lists the
// loaded ones as legs. Every change of a member's active set bumps
// version, so both are rebuilt only after one.
func (u *Uplink) activeTotal() int {
	if u.totalVersion == u.version {
		return u.total
	}
	u.legs = u.legs[:0]
	n := 0
	for i, l := range u.members {
		if len(l.active) == 0 {
			continue
		}
		w := 0.0
		for _, tr := range l.active {
			w += tr.weight
		}
		u.legs = append(u.legs, leg{member: int32(i), off: int32(n), weight: w})
		n += len(l.active)
	}
	u.total, u.totalVersion = n, u.version
	return n
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
	u.ratesVersion, u.ratesAt, u.ratesUntil = u.version, t, u.nextChange(t)
	u.rates = growF(u.rates, total)
	legs := u.legs
	for i := range legs {
		legs[i].remain = u.members[legs[i].member].rateAt(t)
		legs[i].frozen = false
	}
	remain := float64(u.profile.RateAt(t))
	for {
		weight, unfrozen := 0.0, false
		for _, g := range legs {
			if g.frozen {
				continue
			}
			unfrozen = true
			for _, tr := range u.members[g.member].active {
				weight += tr.weight
			}
		}
		if !unfrozen {
			if u.filled != nil {
				u.filled(t)
			}
			return u.rates
		}
		// Fill level: the tightest per-weight capacity among loaded
		// constraints. The uplink carries every unfrozen transfer, so the
		// minimum exists.
		fill := remain / weight
		for _, g := range legs {
			if !g.frozen {
				if r := g.remain / g.weight; r < fill {
					fill = r
				}
			}
		}
		if fill < 0 {
			fill = 0
		}
		// Whether the uplink saturates at this fill level is decided before
		// its remaining capacity moves. The ratio comparison is exact for
		// the arg-min (same division that produced fill) and catches ties.
		upSat := remain/weight <= fill
		for i := range legs {
			g := &legs[i]
			if g.frozen || !(upSat || g.remain/g.weight <= fill) {
				continue
			}
			g.frozen = true
			k := int(g.off)
			for _, tr := range u.members[g.member].active {
				r := fill * tr.weight
				u.rates[k] = r
				remain -= r
				k++
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
}

// nextChange returns the first capacity breakpoint after t that can move
// the allocation: the uplink profile's, or a loaded leaf's profile or
// outage edge. Idle leaves carry no weight, so their capacity is not an
// input. math.MaxInt64 means no breakpoint.
func (u *Uplink) nextChange(t time.Duration) time.Duration {
	next := time.Duration(math.MaxInt64)
	if bp, ok := u.profile.NextChange(t); ok {
		next = bp
	}
	for _, g := range u.legs {
		if bp, ok := u.members[g.member].nextChange(t); ok && bp < next {
			next = bp
		}
	}
	return next
}

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
	finishing := false
	if total := u.activeTotal(); total > 0 {
		rates := u.alloc(u.lastUpdate, total)
		elapsed := (now - u.lastUpdate).Seconds()
		k := 0
		for _, g := range u.legs {
			for _, tr := range u.members[g.member].active {
				tr.done += rates[k] * elapsed / 8
				if tr.done > float64(tr.size) {
					tr.done = float64(tr.size)
				}
				if float64(tr.size)-tr.done < completionSlack {
					finishing = true
				}
				k++
			}
		}
	}
	u.lastUpdate = now
	if !finishing {
		return
	}
	for _, l := range u.members {
		l.finishCompleted()
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
	k := 0
	for _, g := range u.legs {
		for _, tr := range u.members[g.member].active {
			if r := rates[k]; r > 0 {
				remaining := float64(tr.size) - tr.done
				eta := now + time.Duration(remaining*8/r*float64(time.Second))
				if eta <= now {
					eta = now + 1 // guarantee progress
				}
				if eta < next {
					next = eta
				}
			}
			k++
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
