// Package jointabr implements the paper's §4 player-side best practices as
// a concrete joint audio/video adaptation algorithm — the library's primary
// contribution. The design follows the four player-side recommendations:
//
//  1. Adopt audio rate adaptation: audio and video both adapt — audio is
//     never pinned.
//  2. Select only from allowed combinations: the server-provided pairing
//     list (manifest H_sub or equivalent) bounds every decision.
//  3. Joint adaptation: one decision selects the pair, driven by a shared
//     bandwidth estimator that observes the union of audio and video
//     downloading (so concurrent transfers do not cause underestimation),
//     with switch damping to avoid frequent track changes in either
//     component.
//  4. Balanced prefetching: the algorithm is an abr.JointAlgorithm, so the
//     player engine schedules audio and video chunk-synced — buffer levels
//     never diverge by more than one chunk.
//
// Ablation switches (separate estimators, no damping, unrestricted
// combinations) are provided to quantify each design choice.
package jointabr

import (
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// Defaults of the best-practice player.
const (
	// DefaultSafetyFactor is the fraction of the estimate treated as
	// spendable.
	DefaultSafetyFactor = 0.8
	// DefaultUpSwitchBuffer: minimum buffered duration before increasing
	// quality.
	DefaultUpSwitchBuffer = 10 * time.Second
	// DefaultDownSwitchBuffer: above this buffered duration a transient
	// bandwidth dip is ridden out instead of switching down.
	DefaultDownSwitchBuffer = 25 * time.Second
	// DefaultMinHold is the minimum time between quality increases.
	DefaultMinHold = 8 * time.Second
	// DefaultPanicBuffer: below this buffered duration the budget is
	// halved to refill quickly.
	DefaultPanicBuffer = 4 * time.Second
)

// meter is the shared bandwidth meter the models embed: it implements
// abr.Observer itself, so an embedding model is fed the transfer events
// with no forwarding code, and the unexported name adds no field to the
// model's API.
type meter = estimator.GlobalMeter

// Player is the best-practice joint audio/video adapter.
type Player struct {
	// SafetyFactor, switch-damping and panic thresholds; see the package
	// defaults. Override before first use only.
	SafetyFactor     float64
	UpSwitchBuffer   time.Duration
	DownSwitchBuffer time.Duration
	MinHold          time.Duration
	PanicBuffer      time.Duration

	allowed []media.Combo

	// Shared estimator (recommended): one meter over both streams, fed
	// the transfer events it observes itself.
	meter
	// Ablation: per-type estimators summed, modelling players that measure
	// audio and video throughput separately.
	separate     bool
	pathAware    bool
	perType      [2]estimator.SlidingMean
	noDamping    bool
	abandonment  bool
	current      media.Combo
	lastUpswitch time.Duration
}

// Option configures a Player (primarily for ablation benches).
type Option func(*Player)

// WithSeparateEstimators replaces the shared bandwidth meter with
// independent per-type estimators whose sum is used as the estimate —
// quantifying best practice 3's "shared estimator" clause.
func WithSeparateEstimators() Option {
	return func(p *Player) { p.separate = true }
}

// WithoutDamping disables switch hysteresis — quantifying the "avoid
// frequent changes" clause.
func WithoutDamping() Option {
	return func(p *Player) { p.noDamping = true }
}

// WithSafetyFactor overrides the bandwidth safety factor.
func WithSafetyFactor(f float64) Option {
	return func(p *Player) { p.SafetyFactor = f }
}

// WithPathAwareness makes the selection respect per-path budgets: the
// video component must fit the video path's estimate and the audio
// component the audio path's — the §4.1 case where demuxed tracks are
// served from different servers over different bottlenecks, which a single
// aggregate-bandwidth constraint cannot capture.
func WithPathAwareness() Option {
	return func(p *Player) { p.pathAware = true }
}

// WithAbandonment enables in-flight chunk abandonment: when a download's
// projected completion overshoots the buffer it is protecting, the player
// cancels it and refetches the chunk from a cheaper allowed combination.
func WithAbandonment() Option {
	return func(p *Player) { p.abandonment = true }
}

// New creates the player restricted to the given allowed combinations
// (best practice 2), which it shares and never writes. Pass
// abr.NewAllowed(media.AllCombos(...)) to ablate the restriction.
func New(allowed *abr.Allowed, opts ...Option) *Player {
	p := new(Player)
	p.init(allowed, opts)
	return p
}

// init sets p to a new player's state: the one definition of it, for New
// and for the Independent that holds a Player by value.
func (p *Player) init(allowed *abr.Allowed, opts []Option) {
	*p = Player{
		SafetyFactor:     DefaultSafetyFactor,
		UpSwitchBuffer:   DefaultUpSwitchBuffer,
		DownSwitchBuffer: DefaultDownSwitchBuffer,
		MinHold:          DefaultMinHold,
		PanicBuffer:      DefaultPanicBuffer,
		allowed:          allowed.Combos(),
		meter:            estimator.NewGlobalMeter(),
		perType:          [2]estimator.SlidingMean{estimator.NewSlidingMean(), estimator.NewSlidingMean()},
	}
	for _, o := range opts {
		o(p)
	}
}

// Name implements abr.Algorithm. It allocates nothing: the name of every
// option set is built once, in names.
func (p *Player) Name() string { return names[p.nameIndex()] }

// nameIndex packs the options a Player's name shows into an index of
// names: separate, noDamping, pathAware and abandonment are bits 0 to 3.
func (p *Player) nameIndex() int {
	i := 0
	for bit, on := range [...]bool{p.separate, p.noDamping, p.pathAware, p.abandonment} {
		if on {
			i |= 1 << bit
		}
	}
	return i
}

// names holds, at each nameIndex, the name of a Player with those options
// and, 16 further on, the name of an Independent over such a Player.
var names = func() (names [32]string) {
	for i := range 16 {
		separate, noDamping, pathAware, abandonment := i&1 != 0, i&2 != 0, i&4 != 0, i&8 != 0
		name := "bestpractice"
		switch {
		case separate && noDamping:
			name = "bestpractice-separate-nodamping"
		case separate:
			name = "bestpractice-separate-est"
		case noDamping:
			name = "bestpractice-nodamping"
		}
		if pathAware {
			name += "+pathaware"
		}
		if abandonment {
			name += "+abandon"
		}
		names[i], names[16+i] = name, name+"-independent"
	}
	return names
}()

// Allowed exposes the (sorted) allowed combinations.
func (p *Player) Allowed() []media.Combo { return p.allowed }

// SetAllowed replaces the allowed combination list mid-session — e.g. the
// viewer switched audio language and the server's list for that language
// now applies. The current selection resets so the next decision starts
// from the new list.
func (p *Player) SetAllowed(allowed []media.Combo) {
	p.allowed = abr.NewAllowed(allowed).Combos()
	p.current = media.Combo{}
}

// OnComplete implements abr.Observer: the shared meter's, plus the
// per-type estimators' samples.
func (p *Player) OnComplete(ti abr.TransferInfo) {
	p.meter.OnComplete(ti)
	if tput := ti.Throughput(); tput > 0 {
		p.perType[ti.Type].Add(tput)
	}
}

// BandwidthEstimate implements abr.BandwidthReporter.
func (p *Player) BandwidthEstimate() (media.Bps, bool) {
	if p.separate {
		v, okV := p.perType[media.Video].Estimate()
		a, okA := p.perType[media.Audio].Estimate()
		if !okV && !okA {
			return 0, false
		}
		return v + a, true
	}
	return p.meter.Estimate()
}

// Abandon implements abr.Abandoner when WithAbandonment is set: if the
// projected remaining download time exceeds the buffered duration (playback
// would stall waiting for this chunk) and a cheaper allowed combination
// exists, switch the in-flight type to the cheaper combination's track.
// Each chunk is abandoned at most once per type.
func (p *Player) Abandon(dp abr.DownloadProgress) *media.Track {
	if !p.abandonment || dp.Attempt > 0 || dp.Elapsed < 250*time.Millisecond {
		return nil
	}
	if dp.RemainingTime() <= dp.Buffer {
		return nil
	}
	// Pick the highest allowed combination the achieved rate can sustain.
	budget := media.Bps(dp.Rate() * p.SafetyFactor)
	repl := abr.HighestAtMost(p.allowed, budget, media.Combo.DeclaredBitrate)
	var track *media.Track
	if dp.Type == media.Video {
		track = repl.Video
	} else {
		track = repl.Audio
	}
	if track == dp.Track || track.DeclaredBitrate >= dp.Track.DeclaredBitrate {
		return nil
	}
	p.current = repl
	return track
}

// SelectCombo implements abr.JointAlgorithm.
func (p *Player) SelectCombo(st abr.State) media.Combo {
	est, ok := p.BandwidthEstimate()
	if !ok {
		// Conservative fast start: lowest allowed combination.
		p.current = p.allowed[0]
		return p.current
	}
	budget := media.Bps(float64(est) * p.SafetyFactor)
	if st.MinBuffer() < p.PanicBuffer && !st.Startup {
		budget /= 2
	}
	ideal := p.idealCombo(st, budget)
	if p.current.Video == nil || p.noDamping {
		p.current = ideal
		return p.current
	}
	switch {
	case ideal.DeclaredBitrate() > p.current.DeclaredBitrate():
		// Increase only with a healthy buffer and not too soon after the
		// previous increase — stability for both components.
		if st.MinBuffer() >= p.UpSwitchBuffer && st.Now-p.lastUpswitch >= p.MinHold {
			p.current = ideal
			p.lastUpswitch = st.Now
		}
	case ideal.DeclaredBitrate() < p.current.DeclaredBitrate():
		// Hysteresis band: hold the current combination while the raw
		// estimate still covers it (up-switches needed SafetyFactor×est, so
		// small estimate wobbles never flap the selection), and while a full
		// buffer can ride out a real dip. A panicking buffer drops
		// immediately.
		holdable := est >= p.current.DeclaredBitrate() || st.MinBuffer() >= p.DownSwitchBuffer
		if st.MinBuffer() < p.PanicBuffer || !holdable {
			p.current = ideal
		}
	default:
		p.current = ideal
	}
	return p.current
}

// idealCombo picks the richest allowed combination within the budget. In
// path-aware mode each component must additionally fit its own path's
// estimated capacity.
func (p *Player) idealCombo(st abr.State, budget media.Bps) media.Combo {
	if !p.pathAware {
		return abr.HighestAtMost(p.allowed, budget, media.Combo.DeclaredBitrate)
	}
	estV, okV := p.perType[media.Video].Estimate()
	estA, okA := p.perType[media.Audio].Estimate()
	if !okV || !okA {
		return p.allowed[0]
	}
	panicking := st.MinBuffer() < p.PanicBuffer && !st.Startup
	budgetV := media.Bps(float64(estV) * p.SafetyFactor)
	budgetA := media.Bps(float64(estA) * p.SafetyFactor)
	if panicking {
		budgetV /= 2
		budgetA /= 2
	}
	best := p.allowed[0]
	for _, cb := range p.allowed {
		if cb.Video.DeclaredBitrate <= budgetV && cb.Audio.DeclaredBitrate <= budgetA {
			best = cb
		}
	}
	return best
}
