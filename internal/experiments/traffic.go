package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

// CrossTrafficResult is one player's outcome on a link with a competing
// flow in the middle of the session.
type CrossTrafficResult struct {
	Outcome Outcome
	// DuringKbps is the duration-weighted average video bitrate of chunks
	// decided while the cross traffic was active; BeforeKbps the same for
	// the clean leading window.
	BeforeKbps float64
	DuringKbps float64
}

// crossTrafficWindow is when the competing flow runs.
const (
	crossStart = 100 * time.Second
	crossStop  = 200 * time.Second
)

// CrossTraffic streams the drama show on a 2.5 Mbps link that a weight-6
// competing flow (several TCP connections' worth) shares between t=100 s
// and t=200 s, squeezing the player's chunk-pair to a ~625 Kbps aggregate
// share — the "dynamic network conditions" ABR exists for. Every player
// model must shed bitrate during the contention window and recover
// afterwards — except Shaka, whose 16 KB interval filter sees no valid
// samples at these per-flow rates and rides its stale estimate into
// rebuffering (the Fig. 4 root cause under contention).
func CrossTraffic() (map[string]CrossTrafficResult, error) {
	content := media.DramaShow()
	models, allowed, err := buildModels(content)
	if err != nil {
		return nil, err
	}
	out := make(map[string]CrossTrafficResult)
	for _, model := range models {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fixed(media.Kbps(2500)))
		link.StartCrossTraffic(6, crossStart, crossStop)
		res, err := player.Run(link, player.Config{Content: content, Model: model})
		if err != nil {
			return nil, err
		}
		o, err := scoreFinished(res, model.Name(), content, allowed)
		if err != nil {
			return nil, fmt.Errorf("cross traffic: %w", err)
		}
		r := CrossTrafficResult{Outcome: o}
		// Skip the startup ramp in the clean window and the transition in
		// the contended one.
		r.BeforeKbps = windowedVideoKbps(res, content, 40*time.Second, crossStart)
		r.DuringKbps = windowedVideoKbps(res, content, crossStart+20*time.Second, crossStop)
		out[model.Name()] = r
	}
	return out, nil
}

// windowedVideoKbps averages the selected video track bitrate over chunks
// decided within [from, to).
func windowedVideoKbps(res *player.Result, c *media.Content, from, to time.Duration) float64 {
	var bitSeconds, seconds float64
	for _, ch := range res.Chunks {
		if ch.Type != media.Video || ch.DecidedAt < from || ch.DecidedAt >= to {
			continue
		}
		d := c.ChunkDurationOf(media.Video, ch.Index).Seconds()
		bitSeconds += float64(ch.Track.AvgBitrate) * d
		seconds += d
	}
	if seconds <= 0 {
		return 0
	}
	return bitSeconds / seconds / 1000
}

// MuxedBaselineResult contrasts the two packagings with the same player and
// link: the muxed baseline structurally eliminates the A/V balance problem,
// at the §1 origin-storage cost the cdnsim numbers quantify.
type MuxedBaselineResult struct {
	Demuxed Outcome
	Muxed   Outcome
	// StorageRatio is the muxed-over-demuxed origin storage for the
	// content's H_sub packaging.
	StorageRatio float64
}

// MuxedBaseline runs the best-practice player on the Fig. 3 link in both
// packagings.
func MuxedBaseline() (MuxedBaselineResult, error) {
	content := media.DramaShow()
	spec := core.Spec{Content: content, Profile: trace.Fig3VaryingAvg600(), Player: core.BestPractice}
	var r MuxedBaselineResult
	var err error
	if r.Demuxed, err = playToEnd(spec); err != nil {
		return r, err
	}
	spec.Muxed = true
	if r.Muxed, err = playToEnd(spec); err != nil {
		return r, err
	}
	demuxedBytes := cdnsim.OriginStorage(content, cdnsim.Demuxed, nil)
	muxedBytes := cdnsim.OriginStorage(content, cdnsim.Muxed, media.HSub(content))
	r.StorageRatio = float64(muxedBytes) / float64(demuxedBytes)
	return r, nil
}
