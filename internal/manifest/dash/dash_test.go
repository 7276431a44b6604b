package dash

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"demuxabr/internal/media"
)

func TestFormatParseDuration(t *testing.T) {
	cases := []struct {
		d time.Duration
		s string
	}{
		{5 * time.Minute, "PT5M0S"},
		{2 * time.Second, "PT2S"},
		{time.Hour + 2*time.Minute + 3*time.Second, "PT1H2M3S"},
		{1500 * time.Millisecond, "PT1.500S"},
		{0, "PT0S"},
	}
	for _, tc := range cases {
		if got := FormatDuration(tc.d); got != tc.s {
			t.Errorf("FormatDuration(%v) = %q, want %q", tc.d, got, tc.s)
		}
		back, err := ParseDuration(tc.s)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", tc.s, err)
		}
		if back != tc.d {
			t.Errorf("ParseDuration(%q) = %v, want %v", tc.s, back, tc.d)
		}
	}
	for _, bad := range []string{"", "5M", "PT", "PTxS", "P1D"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) should fail", bad)
		}
	}
}

func TestDurationRoundTripProperty(t *testing.T) {
	f := func(ms uint32) bool {
		d := time.Duration(ms%86_400_000) * time.Millisecond
		got, err := ParseDuration(FormatDuration(d))
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRoundTrip(t *testing.T) {
	c := media.DramaShow()
	m := Generate(c)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, buf.String())
	}
	if got.Type != "static" {
		t.Errorf("type = %q", got.Type)
	}
	dur, err := ParseDuration(got.MediaPresentationDuration)
	if err != nil || dur != c.Duration {
		t.Errorf("duration = %v (%v), want %v", dur, err, c.Duration)
	}
	video, audio, err := Ladders(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(video) != 6 || len(audio) != 3 {
		t.Fatalf("ladders = %d/%d, want 6/3", len(video), len(audio))
	}
	// Table 1 declared bitrates must survive the round trip.
	wantDecl := map[string]float64{
		"V1": 111, "V2": 246, "V3": 473, "V4": 914, "V5": 1852, "V6": 3746,
		"A1": 128, "A2": 196, "A3": 384,
	}
	for _, tr := range append(video[:len(video):len(video)], audio...) {
		if tr.DeclaredBitrate != media.Kbps(wantDecl[tr.ID]) {
			t.Errorf("%s declared = %v, want %v Kbps", tr.ID, tr.DeclaredBitrate, wantDecl[tr.ID])
		}
	}
	// Audio attributes preserved.
	if audio[1].Channels != 6 || audio[1].SampleRateHz != 48000 {
		t.Errorf("A2 attrs = %d ch %d Hz", audio[1].Channels, audio[1].SampleRateHz)
	}
}

func TestMPDDeclaresPerTrackNotCombos(t *testing.T) {
	// The §2.3 structural point: an MPD has M+N Representations, not M*N
	// variants — no mechanism to restrict pairings.
	c := media.DramaShow()
	m := Generate(c)
	reps := 0
	for _, as := range m.Periods[0].AdaptationSets {
		reps += len(as.Representations)
	}
	if reps != len(c.VideoTracks)+len(c.AudioTracks) {
		t.Errorf("%d representations, want %d", reps, len(c.VideoTracks)+len(c.AudioTracks))
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("not xml")); err == nil {
		t.Error("non-XML should fail")
	}
	if _, err := Parse(strings.NewReader(`<MPD xmlns="urn:mpeg:dash:schema:mpd:2011"></MPD>`)); err == nil {
		t.Error("MPD without Period should fail")
	}
}

func TestLaddersRejectsUnknownContentType(t *testing.T) {
	in := `<MPD xmlns="urn:mpeg:dash:schema:mpd:2011"><Period>
	<AdaptationSet contentType="text"><Representation id="T1" bandwidth="100"/></AdaptationSet>
	</Period></MPD>`
	m, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Ladders(m); err == nil {
		t.Error("unknown contentType should fail")
	}
}

func TestLaddersRequireSortedBitrates(t *testing.T) {
	in := `<MPD xmlns="urn:mpeg:dash:schema:mpd:2011"><Period>
	<AdaptationSet contentType="video"><Representation id="V2" bandwidth="200"/><Representation id="V1" bandwidth="100"/></AdaptationSet>
	<AdaptationSet contentType="audio"><Representation id="A1" bandwidth="50"/></AdaptationSet>
	</Period></MPD>`
	m, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Ladders(m); err == nil {
		t.Error("unsorted representations should fail ladder validation")
	}
}

func TestSegmentTemplate(t *testing.T) {
	c := media.DramaShow()
	m := Generate(c)
	st := m.Periods[0].AdaptationSets[0].SegmentTemplate
	if st == nil {
		t.Fatal("missing SegmentTemplate")
	}
	if st.Duration != 5000 || st.Timescale != 1000 {
		t.Errorf("segment duration = %d/%d, want 5000/1000", st.Duration, st.Timescale)
	}
	if !strings.Contains(st.Media, "$RepresentationID$") || !strings.Contains(st.Media, "$Number$") {
		t.Errorf("media template = %q", st.Media)
	}
}

func TestSegmentTimelineRoundTrip(t *testing.T) {
	// 17 s of 5 s chunks: 3 full + one 2 s chunk, expressible only with a
	// SegmentTimeline.
	c := media.MustNewContent(media.ContentSpec{
		Name:          "odd",
		Duration:      17 * time.Second,
		ChunkDuration: 5 * time.Second,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
	})
	var buf bytes.Buffer
	if err := Generate(c).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Periods[0].AdaptationSets[0].SegmentTemplate
	if st.Timeline == nil {
		t.Fatal("irregular content should emit a SegmentTimeline")
	}
	durs, err := st.SegmentDurations(c.Duration)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{5 * time.Second, 5 * time.Second, 5 * time.Second, 2 * time.Second}
	if len(durs) != len(want) {
		t.Fatalf("durations = %v", durs)
	}
	for i := range want {
		if durs[i] != want[i] {
			t.Errorf("duration %d = %v, want %v", i, durs[i], want[i])
		}
	}
}

func TestSegmentTimelineOmittedWhenRegular(t *testing.T) {
	m := Generate(media.DramaShow()) // 300 s / 5 s: perfectly regular
	if m.Periods[0].AdaptationSets[0].SegmentTemplate.Timeline != nil {
		t.Error("regular chunking should not emit a timeline")
	}
}

func TestSegmentDurationsFromNominal(t *testing.T) {
	st := &SegmentTemplate{Duration: 5000, Timescale: 1000}
	durs, err := st.SegmentDurations(12 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{5 * time.Second, 5 * time.Second, 2 * time.Second}
	if len(durs) != 3 || durs[2] != want[2] {
		t.Errorf("durations = %v, want %v", durs, want)
	}
}

func TestSegmentDurationsErrors(t *testing.T) {
	cases := []*SegmentTemplate{
		{Duration: 5000, Timescale: 0},
		{Timescale: 1000},
		{Timescale: 1000, Timeline: &SegmentTimeline{S: []S{{D: 0}}}},
		{Timescale: 1000, Timeline: &SegmentTimeline{S: []S{{D: 5, R: -2}}}},
		{Timescale: 1000, Timeline: &SegmentTimeline{}},
		{Duration: 1, Timescale: 2_000_000_000},
		{Timescale: 2_000_000_000, Timeline: &SegmentTimeline{S: []S{{D: 1}}}},
	}
	for i, st := range cases {
		if _, err := st.SegmentDurations(10 * time.Second); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
