package hls

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/media"
)

// sortedKeys lets tests compare attribute maps deterministically.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestAttrListRoundTrip(t *testing.T) {
	in := `BANDWIDTH=2773000,AVERAGE-BANDWIDTH=1805000,RESOLUTION=1280x720,CODECS="avc1.4d401f,mp4a.40.2",AUDIO="audio-A3"`
	attrs, err := parseAttrList(in)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"BANDWIDTH":         "2773000",
		"AVERAGE-BANDWIDTH": "1805000",
		"RESOLUTION":        "1280x720",
		"CODECS":            "avc1.4d401f,mp4a.40.2", // comma inside quotes
		"AUDIO":             "audio-A3",
	}
	for _, k := range sortedKeys(want) {
		if attrs[k] != want[k] {
			t.Errorf("%s = %q, want %q", k, attrs[k], want[k])
		}
	}
	if len(attrs) != len(want) {
		t.Errorf("got %d attrs, want %d", len(attrs), len(want))
	}
}

func TestAttrListErrors(t *testing.T) {
	for _, in := range []string{"NOVALUE", `KEY="unterminated`, "=nokey"} {
		if _, err := parseAttrList(in); err == nil {
			t.Errorf("parseAttrList(%q) should fail", in)
		}
	}
}

func TestMasterRoundTripHSub(t *testing.T) {
	c := media.DramaShow()
	m := GenerateMaster(c, media.HSub(c), nil)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMaster(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, buf.String())
	}
	if len(got.Variants) != 6 || len(got.Renditions) != 3 {
		t.Fatalf("got %d variants / %d renditions, want 6/3", len(got.Variants), len(got.Renditions))
	}
	// Table 3's first row: V1+A1 = 253 Kbps peak, 239 average.
	if got.Variants[0].Bandwidth != 253000 || got.Variants[0].AverageBandwidth != 239000 {
		t.Errorf("variant 0 = %d/%d, want 253000/239000",
			got.Variants[0].Bandwidth, got.Variants[0].AverageBandwidth)
	}
	combos, err := CombosFromMaster(got, c)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"V1+A1", "V2+A1", "V3+A2", "V4+A2", "V5+A3", "V6+A3"}
	for i, cb := range combos {
		if cb.String() != wantNames[i] {
			t.Errorf("combo %d = %s, want %s", i, cb, wantNames[i])
		}
	}
}

func TestMasterHAllBandwidths(t *testing.T) {
	// The full Table 2 must round-trip through the master playlist.
	c := media.DramaShow()
	m := GenerateMaster(c, media.HAll(c), nil)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMaster(&buf)
	if err != nil {
		t.Fatal(err)
	}
	combos, err := CombosFromMaster(got, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 18 {
		t.Fatalf("got %d combos, want 18", len(combos))
	}
	for i, v := range got.Variants {
		if v.Bandwidth != int64(combos[i].PeakBitrate()) {
			t.Errorf("variant %d BANDWIDTH %d != combo peak %d", i, v.Bandwidth, combos[i].PeakBitrate())
		}
	}
}

func TestAudioOrderPreserved(t *testing.T) {
	c := media.DramaShow()
	order := []*media.Track{c.AudioTracks[2], c.AudioTracks[0], c.AudioTracks[1]}
	m := GenerateMaster(c, media.HSub(c), order)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMaster(&buf)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := AudioOrderFromMaster(got, c)
	if err != nil {
		t.Fatal(err)
	}
	if parsed[0].ID != "A3" || parsed[1].ID != "A1" || parsed[2].ID != "A2" {
		t.Errorf("order = %v", parsed)
	}
	if !got.Renditions[0].Default {
		t.Error("first rendition should be DEFAULT=YES")
	}
}

func TestParseMasterErrors(t *testing.T) {
	cases := []string{
		"",                                       // empty
		"not a playlist",                         // missing header
		"#EXTM3U\n#EXT-X-VERSION:x",              // bad version
		"#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1", // no URI line
		"#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=1x1\nuri", // missing BANDWIDTH
		"#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=abc\nuri",  // bad bandwidth
	}
	for _, in := range cases {
		if _, err := ParseMaster(strings.NewReader(in)); err == nil {
			t.Errorf("ParseMaster(%q) should fail", in)
		}
	}
}

func TestMediaRoundTripSingleFile(t *testing.T) {
	c := media.DramaShow()
	tr := c.TrackByID("V3")
	p := GenerateMedia(c, tr, SingleFile, false)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMedia(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != c.NumChunks() {
		t.Fatalf("got %d segments, want %d", len(got.Segments), c.NumChunks())
	}
	if !got.EndList {
		t.Error("missing ENDLIST")
	}
	// Byte ranges must be contiguous and match the chunk sizes.
	var offset int64
	for i, s := range got.Segments {
		if s.ByteRangeOffset != offset {
			t.Fatalf("segment %d offset %d, want %d", i, s.ByteRangeOffset, offset)
		}
		if s.ByteRangeLength != c.ChunkSize(tr, i) {
			t.Fatalf("segment %d length %d, want %d", i, s.ByteRangeLength, c.ChunkSize(tr, i))
		}
		offset += s.ByteRangeLength
	}
}

func TestTrackBitrateFromByteRanges(t *testing.T) {
	// §4.1 case (i): byte ranges yield the per-track bitrate.
	c := media.DramaShow()
	for _, id := range []string{"V1", "V3", "V6", "A1", "A3"} {
		tr := c.TrackByID(id)
		p := GenerateMedia(c, tr, SingleFile, false)
		peak, avg, err := TrackBitrate(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rel := math.Abs(float64(avg-tr.AvgBitrate)) / float64(tr.AvgBitrate); rel > 0.05 {
			t.Errorf("%s: derived avg %v vs track avg %v", id, avg, tr.AvgBitrate)
		}
		if peak > tr.PeakBitrate+media.Kbps(1) {
			t.Errorf("%s: derived peak %v exceeds track peak %v", id, peak, tr.PeakBitrate)
		}
	}
}

func TestTrackBitrateFromBitrateTags(t *testing.T) {
	// §4.1 case (ii): segment files with EXT-X-BITRATE tags.
	c := media.DramaShow()
	tr := c.TrackByID("V4")
	p := GenerateMedia(c, tr, SegmentFiles, true)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMedia(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, avg, err := TrackBitrate(got)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(avg-tr.AvgBitrate)) / float64(tr.AvgBitrate); rel > 0.05 {
		t.Errorf("derived avg %v vs track avg %v", avg, tr.AvgBitrate)
	}
}

func TestTrackBitrateUnavailable(t *testing.T) {
	// Segment files without EXT-X-BITRATE: the top-level-only trap.
	c := media.DramaShow()
	p := GenerateMedia(c, c.TrackByID("V2"), SegmentFiles, false)
	if _, _, err := TrackBitrate(p); err == nil {
		t.Error("expected an error without byte ranges or bitrate tags")
	}
}

func TestParseMediaErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage",
		"#EXTM3U\nseg.m4s",                 // URI without EXTINF
		"#EXTM3U\n#EXTINF:abc,\nseg.m4s",   // bad duration
		"#EXTM3U\n#EXTINF:5.0,",            // dangling EXTINF
		"#EXTM3U\n#EXT-X-BYTERANGE:x@0\nu", // bad byterange
		"#EXTM3U\n#EXT-X-TARGETDURATION:x", // bad target duration
	}
	for _, in := range cases {
		if _, err := ParseMedia(strings.NewReader(in)); err == nil {
			t.Errorf("ParseMedia(%q) should fail", in)
		}
	}
}

func TestMediaPlaylistFields(t *testing.T) {
	in := "#EXTM3U\n#EXT-X-VERSION:4\n#EXT-X-TARGETDURATION:5\n#EXT-X-MEDIA-SEQUENCE:3\n" +
		"#EXT-X-BITRATE:473000\n#EXTINF:5.000,\nseg-3.m4s\n#EXT-X-ENDLIST\n"
	p, err := ParseMedia(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.MediaSequence != 3 || p.TargetDuration != 5*time.Second || p.Version != 4 {
		t.Errorf("parsed header wrong: %+v", p)
	}
	if len(p.Segments) != 1 || p.Segments[0].Bitrate != 473000 || p.Segments[0].URI != "seg-3.m4s" {
		t.Errorf("parsed segment wrong: %+v", p.Segments)
	}
}

func TestParseMasterToleratesCRLF(t *testing.T) {
	// Real servers emit CRLF line endings; the parser must not choke.
	c := media.DramaShow()
	var buf bytes.Buffer
	if err := GenerateMaster(c, media.HSub(c), nil).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(buf.String(), "\n", "\r\n")
	m, err := ParseMaster(strings.NewReader(crlf))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Variants) != 6 || len(m.Renditions) != 3 {
		t.Errorf("CRLF parse: %d variants / %d renditions", len(m.Variants), len(m.Renditions))
	}
	if strings.ContainsAny(m.Variants[0].URI, "\r") {
		t.Error("URI retained a carriage return")
	}
}

func TestParseMediaToleratesCRLF(t *testing.T) {
	c := media.DramaShow()
	var buf bytes.Buffer
	if err := GenerateMedia(c, c.TrackByID("A2"), SingleFile, true).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(buf.String(), "\n", "\r\n")
	p, err := ParseMedia(strings.NewReader(crlf))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != c.NumChunks() || !p.EndList {
		t.Errorf("CRLF parse: %d segments, endlist=%v", len(p.Segments), p.EndList)
	}
}
