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
	wake       *Event

	// version counts active-set and outage mutations across the members
	// (see Link.changed); the cached allocation is stale once it moves.
	version uint64
	// rates holds the last allocation, computed at ratesAt under version
	// ratesVersion. It stays exact for every t in [ratesAt, ratesUntil):
	// ratesUntil is the earliest capacity breakpoint of the uplink or any
	// loaded leaf after ratesAt, so no input of the fill changes before it.
	// The zero value (an empty span) is a miss.
	ratesVersion        uint64
	ratesAt, ratesUntil time.Duration

	// Allocator scratch, reused across recomputes so steady-state event
	// handling allocates nothing.
	rates  []float64
	frozen []bool
	weight []float64
	remain []float64
	sat    []bool

	// rec, when non-nil, receives a LinkRate event each time the observed
	// uplink capacity changes while the group is being integrated.
	rec      *timeline.Recorder
	recLabel string
	lastRate float64
	rateSeen bool
}

// NewUplink creates the shared uplink constraint with the given capacity
// profile. Access leaves join via NewLeaf.
func NewUplink(eng *Engine, profile trace.Profile) *Uplink {
	if profile == nil {
		panic("netsim: nil uplink profile")
	}
	return &Uplink{eng: eng, profile: profile}
}

// Engine returns the engine driving this uplink.
func (u *Uplink) Engine() *Engine { return u.eng }

// Members returns the number of attached access leaves.
func (u *Uplink) Members() int { return len(u.members) }

// NewLeaf creates an access link behind this uplink: transfers started on
// it obey the leaf profile, the shared uplink, and weighted fairness
// against every other transfer in the tree.
func (u *Uplink) NewLeaf(profile trace.Profile) *Link {
	l := NewLink(u.eng, profile)
	l.up = u
	u.members = append(u.members, l)
	return l
}

// activeTotal counts in-flight transfers across all members.
func (u *Uplink) activeTotal() int {
	n := 0
	for _, l := range u.members {
		n += len(l.active)
	}
	return n
}

// alloc returns the weighted max-min rate (bits/s) of every active
// transfer at time t, flattened in member order. While no member's active
// set has changed and t lies before the next capacity breakpoint, the
// inputs of the fill are those of the last call, so the cached vector is
// returned as is; otherwise it is recomputed. Constraint 0 is the
// uplink; constraint 1+i is member i. Progressive filling: raise every
// unfrozen transfer's per-weight rate in lockstep until some constraint
// saturates, freeze that constraint's transfers at the fill level, and
// repeat with the remaining capacity. Every transfer loads the uplink
// constraint, so the fill level is always finite, and each round freezes
// at least one transfer — the loop runs at most len(members)+1 rounds.
func (u *Uplink) alloc(t time.Duration, total int) []float64 {
	if u.ratesVersion == u.version && u.ratesAt <= t && t < u.ratesUntil {
		return u.rates
	}
	u.ratesVersion, u.ratesAt, u.ratesUntil = u.version, t, u.nextChange(t)
	nc := len(u.members) + 1
	u.rates = growF(u.rates, total)
	u.frozen = growB(u.frozen, total)
	u.weight = growF(u.weight, nc)
	u.remain = growF(u.remain, nc)
	u.sat = growB(u.sat, nc)
	for i := range u.rates {
		u.rates[i] = 0
		u.frozen[i] = false
	}
	u.remain[0] = float64(u.profile.RateAt(t))
	for i, l := range u.members {
		u.remain[1+i] = l.rateAt(t)
	}
	for {
		for c := range u.weight {
			u.weight[c] = 0
		}
		k, unfrozen := 0, 0
		for i, l := range u.members {
			for _, tr := range l.active {
				if !u.frozen[k] {
					unfrozen++
					u.weight[0] += tr.weight
					u.weight[1+i] += tr.weight
				}
				k++
			}
		}
		if unfrozen == 0 {
			return u.rates
		}
		// Fill level: the tightest per-weight capacity among loaded
		// constraints. The uplink carries every unfrozen transfer, so the
		// minimum exists.
		fill := math.Inf(1)
		for c := range u.remain {
			if u.weight[c] > 0 {
				if r := u.remain[c] / u.weight[c]; r < fill {
					fill = r
				}
			}
		}
		if fill < 0 {
			fill = 0
		}
		// Snapshot which constraints saturate at this fill level before
		// mutating remaining capacity. The ratio comparison is exact for the
		// arg-min (same division that produced fill) and catches ties.
		for c := range u.remain {
			u.sat[c] = u.weight[c] > 0 && u.remain[c]/u.weight[c] <= fill
		}
		k = 0
		for i, l := range u.members {
			for _, tr := range l.active {
				if !u.frozen[k] && (u.sat[0] || u.sat[1+i]) {
					r := fill * tr.weight
					u.rates[k] = r
					u.frozen[k] = true
					u.remain[0] -= r
					u.remain[1+i] -= r
				}
				k++
			}
		}
		for c := range u.remain {
			if u.remain[c] < 0 {
				u.remain[c] = 0
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
	for _, l := range u.members {
		if len(l.active) == 0 {
			continue
		}
		if bp, ok := l.nextChange(t); ok && bp < next {
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
// same for its own access capacity.
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
	for _, l := range u.members {
		l.observeRate(now)
	}
}

// advance integrates every member's transfers from lastUpdate to now at
// the allocation that applied over the span (group wake events at every
// completion and breakpoint guarantee the allocation was constant), then
// completes finished transfers member by member.
func (u *Uplink) advance() {
	now := u.eng.Now()
	u.observeRate(now)
	if now <= u.lastUpdate {
		u.touch(now)
		return
	}
	if total := u.activeTotal(); total > 0 {
		rates := u.alloc(u.lastUpdate, total)
		elapsed := (now - u.lastUpdate).Seconds()
		k := 0
		for _, l := range u.members {
			for _, tr := range l.active {
				tr.done += rates[k] * elapsed / 8
				if tr.done > float64(tr.size) {
					tr.done = float64(tr.size)
				}
				k++
			}
		}
	}
	u.touch(now)
	for _, l := range u.members {
		l.finishCompleted()
	}
}

// touch marks the whole tree as integrated up to now.
func (u *Uplink) touch(now time.Duration) {
	u.lastUpdate = now
	for _, l := range u.members {
		l.lastUpdate = now
	}
}

// reschedule arms one wake event for the whole tree: the earliest transfer
// completion at current allocation rates, or the next capacity breakpoint
// (uplink profile, or any loaded leaf's profile/outage edge).
func (u *Uplink) reschedule() {
	if u.wake != nil {
		u.eng.Cancel(u.wake)
		u.wake = nil
	}
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
	for _, l := range u.members {
		for _, tr := range l.active {
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
	u.wake = u.eng.Schedule(next, func() {
		u.wake = nil
		u.advance()
		u.reschedule()
	})
}

// growF returns s resized to n, reallocating only on capacity growth.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growB returns s resized to n, reallocating only on capacity growth.
func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
