package jointabr

import (
	"demuxabr/internal/abr"
	"demuxabr/internal/media"
)

// Independent downgrades the best-practice player to dash.js-style
// free-running per-type scheduling — the ablation of best practice 4
// (balanced chunk-level prefetching). The decision logic is identical; only
// the download discipline changes, because this type implements
// abr.PerTypeAlgorithm instead of abr.JointAlgorithm.
//
// It holds its Player as a field rather than embedding it: embedding would
// promote SelectCombo, making it an abr.JointAlgorithm that the player
// engine schedules jointly.
type Independent struct {
	p Player
}

// NewIndependent creates the scheduling-ablated best-practice player over
// the allowed combinations, which it shares and never writes.
func NewIndependent(allowed *abr.Allowed, opts ...Option) *Independent {
	i := new(Independent)
	i.p.init(allowed, opts)
	return i
}

// Name implements abr.Algorithm, allocating nothing (see Player.Name).
func (i *Independent) Name() string { return names[16+i.p.nameIndex()] }

// OnStart implements abr.Observer.
func (i *Independent) OnStart(ti abr.TransferInfo) { i.p.OnStart(ti) }

// OnProgress implements abr.Observer.
func (i *Independent) OnProgress(ti abr.TransferInfo) { i.p.OnProgress(ti) }

// OnComplete implements abr.Observer.
func (i *Independent) OnComplete(ti abr.TransferInfo) { i.p.OnComplete(ti) }

// BandwidthEstimate implements abr.BandwidthReporter.
func (i *Independent) BandwidthEstimate() (media.Bps, bool) { return i.p.BandwidthEstimate() }

// SelectTrack implements abr.PerTypeAlgorithm by projecting the joint
// decision onto the requested type.
func (i *Independent) SelectTrack(t media.Type, st abr.State) *media.Track {
	combo := i.p.SelectCombo(st)
	if t == media.Video {
		return combo.Video
	}
	return combo.Audio
}
