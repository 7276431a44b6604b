package lint

import (
	"strings"
	"testing"
	"time"

	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
)

// playlist builds a media playlist from segment durations.
func playlist(target time.Duration, durs ...time.Duration) *hls.MediaPlaylist {
	p := &hls.MediaPlaylist{TargetDuration: target, EndList: true}
	for _, d := range durs {
		p.Segments = append(p.Segments, hls.Segment{Duration: d, URI: "s.m4s", ByteRangeLength: 1})
	}
	return p
}

func TestMediaTimelineDrift(t *testing.T) {
	const s = time.Second
	bad := playlist(4*s, 4*s, 4*s, 6*s, 4*s, 1*s)
	rules := ruleSet(MediaTimeline("V1.m3u8", bad))
	f, ok := rules["hls-irregular-segment-durations"]
	if !ok {
		t.Fatalf("irregular playlist not flagged: %v", rules)
	}
	if !strings.Contains(f.Message, "segment 2 at 6s") {
		t.Errorf("worst offender not reported: %s", f.Message)
	}

	// The short final segment is exempt: it is how streams end.
	good := playlist(4*s, 4*s, 4*s, 4*s, 1*s)
	if fs := MediaTimeline("V1.m3u8", good); len(fs) != 0 {
		t.Errorf("regular playlist flagged: %v", fs)
	}
	// Sub-tolerance jitter passes.
	jitter := playlist(4*s, 4*s, 3700*time.Millisecond, 4*s, 2*s)
	if fs := MediaTimeline("V1.m3u8", jitter); len(fs) != 0 {
		t.Errorf("sub-tolerance jitter flagged: %v", fs)
	}
	// No declared target, nothing to check against.
	if fs := MediaTimeline("V1.m3u8", playlist(0, 4*s, 9*s)); len(fs) != 0 {
		t.Errorf("targetless playlist flagged: %v", fs)
	}
}

func TestSegmentAlignment(t *testing.T) {
	const s = time.Second
	video := playlist(4*s, 4*s, 4*s, 4*s, 2*s)
	skewed := playlist(4*s, 3500*time.Millisecond, 4*s, 4*s, 2500*time.Millisecond)
	fs := SegmentAlignment("V1.m3u8", "A1.m3u8", video, skewed)
	if len(fs) != 1 || fs[0].Rule != "hls-av-misaligned-segments" {
		t.Fatalf("misaligned tracks not flagged: %v", fs)
	}
	if !strings.Contains(fs[0].Message, "V1.m3u8") || !strings.Contains(fs[0].Message, "A1.m3u8") {
		t.Errorf("pair not named: %s", fs[0].Message)
	}

	// Audio quantized to frame sizes: tens of milliseconds are fine.
	quantized := playlist(4*s, 3990*time.Millisecond, 4010*time.Millisecond, 4*s, 2*s)
	if fs := SegmentAlignment("V1.m3u8", "A1.m3u8", video, quantized); len(fs) != 0 {
		t.Errorf("frame-quantized audio flagged: %v", fs)
	}
	// Different tails do not misalign the common prefix.
	shorter := playlist(4*s, 4*s, 4*s, 4*s)
	if fs := SegmentAlignment("V1.m3u8", "A1.m3u8", video, shorter); len(fs) != 0 {
		t.Errorf("differing tails flagged: %v", fs)
	}
}

func TestTargetDurationBelowMaxSegment(t *testing.T) {
	const s = time.Second
	// A shaped (variable-by-design) playlist whose target undersells the
	// longest segment: the drift rule stays quiet, the RFC rule fires.
	under := playlist(6*s, 5*s, 7*s, 8*s, 6*s, 4*s, 2*s)
	rules := ruleSet(MediaTimeline("V1.m3u8", under))
	if f, ok := rules["hls-targetduration-below-max-segment"]; !ok {
		t.Fatalf("underselling target not flagged: %v", rules)
	} else if !strings.Contains(f.Message, "8s") {
		t.Errorf("max segment not reported: %s", f.Message)
	}
	if _, ok := rules["hls-irregular-segment-durations"]; ok {
		t.Errorf("variable-by-design playlist flagged as drifting: %v", rules)
	}

	// The same shape with a covering target is clean on both rules.
	covered := playlist(8*s, 5*s, 7*s, 8*s, 6*s, 4*s, 2*s)
	if fs := MediaTimeline("V1.m3u8", covered); len(fs) != 0 {
		t.Errorf("covered variable playlist flagged: %v", fs)
	}
	// Sub-half-second overshoot rounds down (RFC rounds EXTINF to the
	// nearest integer before comparing).
	rounding := playlist(4*s, 4*s, 4400*time.Millisecond, 4*s, 2*s)
	if fs := MediaTimeline("V1.m3u8", rounding); len(fs) != 0 {
		t.Errorf("sub-rounding overshoot flagged: %v", fs)
	}
	// A nominally-uniform playlist with one long drifter trips BOTH rules.
	drifter := playlist(4*s, 4*s, 4*s, 6*s, 4*s, 4*s, 2*s)
	rules = ruleSet(MediaTimeline("V1.m3u8", drifter))
	if _, ok := rules["hls-irregular-segment-durations"]; !ok {
		t.Errorf("uniform playlist with drifter not flagged: %v", rules)
	}
	if _, ok := rules["hls-targetduration-below-max-segment"]; !ok {
		t.Errorf("drifter above target not flagged: %v", rules)
	}
}

func TestVariableByDesignAlignment(t *testing.T) {
	const s = time.Second
	// Shaped per-type timelines: video variable, audio uniform 6s —
	// deliberately misaligned, accepted.
	video := playlist(8*s, 5*s, 7*s, 8*s, 6*s, 4*s, 6*s, 4*s)
	audio := playlist(6*s, 6*s, 6*s, 6*s, 6*s, 6*s, 6*s, 4*s)
	if fs := SegmentAlignment("V1.m3u8", "A1.m3u8", video, audio); len(fs) != 0 {
		t.Errorf("declared-variable pair flagged: %v", fs)
	}
	// Nominally-uniform pairs still flag genuine skew (the pre-shaping
	// behaviour is unchanged).
	uniform := playlist(4*s, 4*s, 4*s, 4*s, 2*s)
	skewed := playlist(4*s, 3500*time.Millisecond, 4*s, 4*s, 2500*time.Millisecond)
	if fs := SegmentAlignment("V1.m3u8", "A1.m3u8", uniform, skewed); len(fs) != 1 {
		t.Errorf("uniform skewed pair not flagged: %v", fs)
	}
}

func TestMPDDeclaredVariableTimeline(t *testing.T) {
	// SegmentTimeline without @duration is the DASH declared-variable form:
	// no drift rule (no nominal to drift from), no alignment rule (the
	// misalignment is the design).
	video := &dash.SegmentTemplate{
		Timescale: timescale(1000),
		Timeline: &dash.SegmentTimeline{S: []dash.S{
			{D: 5000}, {D: 7000}, {D: 8000}, {D: 6000}, {D: 4000, R: 2}, {D: 2000},
		}},
	}
	audio := &dash.SegmentTemplate{
		Timescale: timescale(1000),
		Timeline:  &dash.SegmentTimeline{S: []dash.S{{D: 6000, R: 5}, {D: 4000}}},
	}
	if fs := MPDTimeline(timelineMPD(video, audio)); len(fs) != 0 {
		t.Errorf("declared-variable MPD flagged: %v", fs)
	}
	// With a nominal @duration alongside the same video timeline, the drift
	// is once again a claim the manifest breaks — both rules return.
	video.Duration = 5000
	audioNominal := &dash.SegmentTemplate{Timescale: timescale(1000), Duration: 5000}
	rules := ruleSet(MPDTimeline(timelineMPD(video, audioNominal)))
	if _, ok := rules["dash-irregular-segment-durations"]; !ok {
		t.Errorf("nominal+timeline drift not flagged: %v", rules)
	}
	if _, ok := rules["dash-av-misaligned-segments"]; !ok {
		t.Errorf("nominal+timeline misalignment not flagged: %v", rules)
	}
}

// timelineMPD builds a two-adaptation-set MPD with explicit control of
// each set's segment template.
func timelineMPD(video, audio *dash.SegmentTemplate) *dash.MPD {
	return &dash.MPD{
		MediaPresentationDuration: "PT40S",
		Periods: []dash.Period{{
			AdaptationSets: []dash.AdaptationSet{
				{ContentType: "video", SegmentTemplate: video},
				{ContentType: "audio", SegmentTemplate: audio},
			},
		}},
	}
}

func TestMPDTimelineDrift(t *testing.T) {
	video := &dash.SegmentTemplate{
		Timescale: timescale(1000), Duration: 4000,
		Timeline: &dash.SegmentTimeline{S: []dash.S{
			{D: 4000, R: 2}, {D: 6000}, {D: 4000, R: 5}, {D: 2000},
		}},
	}
	audio := &dash.SegmentTemplate{Timescale: timescale(1000), Duration: 4000}
	rules := ruleSet(MPDTimeline(timelineMPD(video, audio)))
	if f, ok := rules["dash-irregular-segment-durations"]; !ok {
		t.Fatalf("drifting timeline not flagged: %v", rules)
	} else if !strings.Contains(f.Message, "video SegmentTimeline") {
		t.Errorf("adaptation set not named: %s", f.Message)
	}
	// The drifting video timeline also shifts every later boundary away
	// from the audio track's nominal grid.
	if _, ok := rules["dash-av-misaligned-segments"]; !ok {
		t.Errorf("shifted boundaries not flagged: %v", rules)
	}

	regular := &dash.SegmentTemplate{
		Timescale: timescale(1000), Duration: 4000,
		Timeline: &dash.SegmentTimeline{S: []dash.S{{D: 4000, R: 8}, {D: 2000}}},
	}
	if fs := MPDTimeline(timelineMPD(regular, audio)); len(fs) != 0 {
		t.Errorf("regular timeline flagged: %v", fs)
	}
}

// TestMPDTimelineRefusedTemplates: a SegmentTemplate whose segment list
// clients refuse to expand — a non-positive S@d, a negative S@r, more
// than dash.MaxSegments segments — is a finding naming its adaptation set
// and the cause, not a template the timeline rules skip.
func TestMPDTimelineRefusedTemplates(t *testing.T) {
	audio := &dash.SegmentTemplate{Timescale: timescale(1000), Duration: 4000}
	for _, tc := range []struct {
		name  string
		s     []dash.S
		cause string
	}{
		{"zero S@d", []dash.S{{D: 4000, R: 3}, {D: 0}}, "non-positive duration"},
		{"negative S@r", []dash.S{{D: 4000, R: -2}}, "negative repeat"},
		{"too many segments", []dash.S{{D: 4000, R: dash.MaxSegments}}, "more than"},
	} {
		video := &dash.SegmentTemplate{Timescale: timescale(1000), Duration: 4000, Timeline: &dash.SegmentTimeline{S: tc.s}}
		fs := MPDTimeline(timelineMPD(video, audio))
		if len(fs) != 1 || fs[0].Rule != "dash-invalid-segment-template" || fs[0].Severity != Warning {
			t.Fatalf("%s: findings %v, want one dash-invalid-segment-template warning", tc.name, fs)
		}
		if !strings.Contains(fs[0].Message, "video SegmentTemplate") || !strings.Contains(fs[0].Message, tc.cause) {
			t.Errorf("%s: message %q does not name the video set and %q", tc.name, fs[0].Message, tc.cause)
		}
	}
}

func TestMPDTimelineMisalignedNominals(t *testing.T) {
	video := &dash.SegmentTemplate{Timescale: timescale(1000), Duration: 4000}
	audio := &dash.SegmentTemplate{Timescale: timescale(1000), Duration: 3500}
	rules := ruleSet(MPDTimeline(timelineMPD(video, audio)))
	if _, ok := rules["dash-av-misaligned-segments"]; !ok {
		t.Fatalf("3.5s audio vs 4s video chunking not flagged: %v", rules)
	}
	if _, ok := rules["dash-irregular-segment-durations"]; ok {
		t.Errorf("nominal-only templates have no timeline to drift: %v", rules)
	}
}

// TestGeneratedManifestsHaveRegularTimelines pins the repo's own
// generators to the practice the rules enforce.
func TestGeneratedManifestsHaveRegularTimelines(t *testing.T) {
	c := media.DramaShow()
	if fs := MPDTimeline(dash.Generate(c)); len(fs) != 0 {
		t.Errorf("generated MPD flagged: %v", fs)
	}
	v := hls.GenerateMedia(c, c.TrackByID("V1"), hls.SingleFile, false)
	a := hls.GenerateMedia(c, c.TrackByID("A1"), hls.SingleFile, false)
	if fs := MediaTimeline("V1", v); len(fs) != 0 {
		t.Errorf("generated video playlist flagged: %v", fs)
	}
	if fs := SegmentAlignment("V1", "A1", v, a); len(fs) != 0 {
		t.Errorf("generated pair flagged: %v", fs)
	}
}

// TestGeneratedShapedManifestsPassTimelineRules pins the other side: a
// shaped title's manifests declare their variability and must lint clean.
func TestGeneratedShapedManifestsPassTimelineRules(t *testing.T) {
	spec := media.ContentSpec{
		Name:          "shaped",
		Duration:      60 * time.Second,
		ChunkDuration: 5 * time.Second,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.DefaultChunkModel(),
		VideoChunks: []time.Duration{
			5 * time.Second, 7 * time.Second, 8 * time.Second, 6 * time.Second,
			4 * time.Second, 7 * time.Second, 5 * time.Second, 8 * time.Second,
			6 * time.Second, 4 * time.Second,
		},
		AudioChunks: []time.Duration{
			6 * time.Second, 6 * time.Second, 6 * time.Second, 6 * time.Second,
			6 * time.Second, 6 * time.Second, 6 * time.Second, 6 * time.Second,
			6 * time.Second, 6 * time.Second,
		},
	}
	c := media.MustNewContent(spec)
	if fs := MPDTimeline(dash.Generate(c)); len(fs) != 0 {
		t.Errorf("shaped MPD flagged: %v", fs)
	}
	v := hls.GenerateMedia(c, c.TrackByID("V1"), hls.SingleFile, false)
	a := hls.GenerateMedia(c, c.TrackByID("A1"), hls.SingleFile, false)
	if fs := MediaTimeline("V1", v); len(fs) != 0 {
		t.Errorf("shaped video playlist flagged: %v", fs)
	}
	if fs := SegmentAlignment("V1", "A1", v, a); len(fs) != 0 {
		t.Errorf("shaped pair flagged: %v", fs)
	}
}

// timescale returns a @timescale attribute of v.
func timescale(v int64) *int64 { return &v }
