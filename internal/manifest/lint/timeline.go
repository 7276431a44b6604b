package lint

import (
	"fmt"
	"strings"
	"time"

	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/manifest/hls"
)

// Segment-timeline regularity and audio/video boundary alignment: the
// manifest-side checks the chunking work needs. Irregular segment
// durations make byte-budget planning (duration x declared bitrate)
// wrong per segment, and misaligned audio/video boundaries force players
// to switch mid-segment and defeat shared-CDN chunk reuse for demuxed
// tracks — the cache-amplification effect the fleet experiments measure
// only holds when both tracks cut at the same instants.

// driftFraction is the tolerated deviation of one segment's duration
// from the declared nominal (HLS EXT-X-TARGETDURATION, DASH @duration):
// a fifth of a segment. The final segment is exempt — a short tail is
// how every encoder closes a stream.
const driftFraction = 5 // denominator: tolerance = nominal/driftFraction

// alignTolerance is how far one track's segment boundary may sit from
// the other track's matching boundary before the pair counts as
// misaligned. Audio encoders quantize to frame sizes (~21 ms for AAC),
// so exact equality is too strict; 100 ms is several frames yet far
// below any plausible chunk duration.
const alignTolerance = 100 * time.Millisecond

// dominantFraction decides when an HLS timeline is nominally uniform: HLS
// has no declared-variable marker (unlike a DASH SegmentTimeline without
// @duration), so a playlist whose modal segment duration covers less than
// 2/3 of its non-final segments is treated as variable by design —
// content-aware chunking, not encoder drift — and exempt from the
// regularity and alignment rules.
const (
	dominantNum = 2
	dominantDen = 3
)

// variableByDesign reports whether an HLS segment-duration list reads as a
// deliberately variable timeline rather than a drifting uniform one.
func variableByDesign(durs []time.Duration) bool {
	if len(durs) < 2 {
		return false
	}
	body := durs[:len(durs)-1] // the final segment is always exempt
	counts := map[time.Duration]int{}
	modal := 0
	for _, d := range body {
		counts[d]++
		if counts[d] > modal {
			modal = counts[d]
		}
	}
	return modal*dominantDen < len(body)*dominantNum
}

// MediaTimeline lints one media playlist's segment durations: regularity
// against the declared target (for nominally-uniform timelines), and the
// RFC 8216 §4.3.3.1 requirement that EXT-X-TARGETDURATION cover every
// segment's rounded duration (for all timelines — a variable-by-design
// playlist still must not undersell its longest segment, or clients
// under-provision buffers and misestimate the live refresh interval).
func MediaTimeline(name string, p *hls.MediaPlaylist) []Finding {
	if p.TargetDuration <= 0 || len(p.Segments) < 2 {
		return nil
	}
	durs := segmentDurations(p)
	var out []Finding
	if !variableByDesign(durs) {
		if irregular, worst, worstAt := driftCount(durs, p.TargetDuration); irregular > 0 {
			out = append(out, Finding{Warning, "hls-irregular-segment-durations",
				fmt.Sprintf("%s: %d/%d segments drift more than 1/%d from the declared %v target (worst: segment %d at %v); irregular chunking breaks duration-based byte budgeting and audio/video boundary alignment (§4.1)",
					name, irregular, len(durs)-1, driftFraction, p.TargetDuration, worstAt, worst)})
		}
	}
	var maxSeg time.Duration
	maxAt := 0
	for i, d := range durs {
		if d > maxSeg {
			maxSeg, maxAt = d, i
		}
	}
	if maxSeg.Round(time.Second) > p.TargetDuration {
		out = append(out, Finding{Warning, "hls-targetduration-below-max-segment",
			fmt.Sprintf("%s: EXT-X-TARGETDURATION %v below segment %d's %v (RFC 8216 §4.3.3.1: every EXTINF rounded to the nearest integer must not exceed it); clients size buffers and playlist-refresh timers from the target",
				name, p.TargetDuration, maxAt, maxSeg)})
	}
	return out
}

// SegmentAlignment compares the cumulative segment boundaries of a video
// media playlist and the audio playlist paired with it in a master. Pairs
// where either side is variable by design are skipped: per-type shaped
// timelines misalign on purpose, and the player-side cost is a measured
// trade (the Ladder experiments), not a packaging mistake.
func SegmentAlignment(videoName, audioName string, video, audio *hls.MediaPlaylist) []Finding {
	vd, ad := segmentDurations(video), segmentDurations(audio)
	if variableByDesign(vd) || variableByDesign(ad) {
		return nil
	}
	return alignFindings("hls-av-misaligned-segments", videoName, audioName, boundaries(vd), boundaries(ad))
}

// MPDTimeline lints every SegmentTemplate in an MPD: one whose segment
// list cannot be expanded (see dash.SegmentTemplate.SegmentDurations), so
// that clients refuse the MPD, explicit timelines against the declared
// nominal duration, and the audio adaptation set's boundaries against the
// video one's.
func MPDTimeline(m *dash.MPD) []Finding {
	total := time.Duration(0)
	if m.MediaPresentationDuration != "" {
		if d, err := dash.ParseDuration(m.MediaPresentationDuration); err == nil {
			total = d
		}
	}
	var out []Finding
	var videoBounds, audioBounds []time.Duration
	haveVideo, haveAudio := false, false
	declaredVariable := false
	for _, p := range m.Periods {
		for _, as := range p.AdaptationSets {
			st := as.SegmentTemplate
			if st == nil {
				continue
			}
			kind := contentKind(as)
			durs, err := st.SegmentDurations(total)
			if err != nil {
				out = append(out, Finding{Warning, "dash-invalid-segment-template",
					fmt.Sprintf("%s SegmentTemplate: %v; clients cannot list its segments and refuse the MPD", kind, err)})
				continue
			}
			if len(durs) == 0 {
				continue
			}
			// A SegmentTimeline without @duration IS the declaration that the
			// timeline is variable: the durations are authoritative, there is
			// no nominal to drift from, and A/V alignment is not promised.
			if st.Timeline != nil && st.Duration == 0 {
				declaredVariable = true
			}
			// Drift is only checkable when both a nominal @duration and an
			// explicit timeline are declared: the timeline is then the truth
			// the nominal must track.
			if st.Timeline != nil && st.Duration > 0 && st.UnitsPerSecond() > 0 {
				nominal := time.Duration(st.Duration) * time.Second / time.Duration(st.UnitsPerSecond())
				if irregular, worst, worstAt := driftCount(durs, nominal); irregular > 0 {
					out = append(out, Finding{Warning, "dash-irregular-segment-durations",
						fmt.Sprintf("%s SegmentTimeline: %d/%d segments drift more than 1/%d from the declared %v @duration (worst: segment %d at %v); irregular chunking breaks duration-based byte budgeting and audio/video boundary alignment (§4.1)",
							kind, irregular, len(durs)-1, driftFraction, nominal, worstAt, worst)})
				}
			}
			switch kind {
			case "video":
				if !haveVideo {
					videoBounds, haveVideo = boundaries(durs), true
				}
			case "audio":
				if !haveAudio {
					audioBounds, haveAudio = boundaries(durs), true
				}
			}
		}
	}
	if haveVideo && haveAudio && !declaredVariable {
		out = append(out, alignFindings("dash-av-misaligned-segments", "video", "audio", videoBounds, audioBounds)...)
	}
	return out
}

// contentKind classifies an adaptation set as video, audio, or other.
func contentKind(as dash.AdaptationSet) string {
	switch {
	case as.ContentType == "video" || strings.HasPrefix(as.MimeType, "video/"):
		return "video"
	case as.ContentType == "audio" || strings.HasPrefix(as.MimeType, "audio/"):
		return "audio"
	}
	return "other"
}

// segmentDurations extracts EXTINF durations.
func segmentDurations(p *hls.MediaPlaylist) []time.Duration {
	var durs []time.Duration
	for _, seg := range p.Segments {
		durs = append(durs, seg.Duration)
	}
	return durs
}

// driftCount counts non-final segments deviating from nominal by more
// than nominal/driftFraction, returning the worst offender.
func driftCount(durs []time.Duration, nominal time.Duration) (irregular int, worst time.Duration, worstAt int) {
	tol := nominal / driftFraction
	worstDrift := time.Duration(0)
	for i, d := range durs[:len(durs)-1] {
		drift := d - nominal
		if drift < 0 {
			drift = -drift
		}
		if drift > tol {
			irregular++
			if drift > worstDrift {
				worstDrift, worst, worstAt = drift, d, i
			}
		}
	}
	return irregular, worst, worstAt
}

// boundaries turns per-segment durations into cumulative boundary times
// (excluding the stream end, which legitimately differs between tracks).
func boundaries(durs []time.Duration) []time.Duration {
	var out []time.Duration
	cum := time.Duration(0)
	for _, d := range durs[:max(len(durs)-1, 0)] {
		cum += d
		out = append(out, cum)
	}
	return out
}

// alignFindings compares two boundary sequences pairwise over their
// common prefix.
func alignFindings(rule, videoName, audioName string, vb, ab []time.Duration) []Finding {
	n := min(len(vb), len(ab))
	misaligned := 0
	worst := time.Duration(0)
	worstAt := 0
	for i := 0; i < n; i++ {
		diff := vb[i] - ab[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > alignTolerance {
			misaligned++
			if diff > worst {
				worst, worstAt = diff, i
			}
		}
	}
	if misaligned == 0 {
		return nil
	}
	return []Finding{{Warning, rule,
		fmt.Sprintf("%s and %s segment boundaries diverge at %d/%d points (worst %v at boundary %d); misaligned boundaries force mid-segment switches and defeat shared-cache chunk reuse for demuxed tracks (§4.1)",
			videoName, audioName, misaligned, n, worst, worstAt)}}
}
