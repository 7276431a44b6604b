package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	dashpkg "demuxabr/internal/manifest/dash"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
)

func writeFile(t *testing.T, dir, name string, enc func(f *os.File) error) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintFiles(t *testing.T) {
	dir := t.TempDir()
	c := media.DramaShow()
	hall := writeFile(t, dir, "hall.m3u8", func(f *os.File) error {
		return hls.GenerateMaster(c, media.HAll(c), nil).Encode(f)
	})
	hsub := writeFile(t, dir, "hsub.m3u8", func(f *os.File) error {
		return hls.GenerateMaster(c, media.HSub(c), nil).Encode(f)
	})
	badMedia := writeFile(t, dir, "v1.m3u8", func(f *os.File) error {
		return hls.GenerateMedia(c, c.TrackByID("V1"), hls.SegmentFiles, false).Encode(f)
	})
	goodMedia := writeFile(t, dir, "a1.m3u8", func(f *os.File) error {
		return hls.GenerateMedia(c, c.TrackByID("A1"), hls.SingleFile, false).Encode(f)
	})

	warnings, errs := run([]string{hall, badMedia}, false, io.Discard, io.Discard)
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if warnings < 2 {
		t.Errorf("warnings = %d, want >= 2 (H_all + unrecoverable media)", warnings)
	}
	warnings, errs = run([]string{hsub, goodMedia}, false, io.Discard, io.Discard)
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if warnings != 0 {
		t.Errorf("curated manifests should lint clean, got %d warnings", warnings)
	}
}

func TestLintMPD(t *testing.T) {
	dir := t.TempDir()
	mpd := writeFile(t, dir, "manifest.mpd", func(f *os.File) error {
		return dashGenerate(f)
	})
	warnings, errs := run([]string{mpd}, false, io.Discard, io.Discard)
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if warnings != 0 {
		t.Errorf("MPD findings are informational; warnings = %d", warnings)
	}
}

func TestLintMPDMissingBandwidth(t *testing.T) {
	dir := t.TempDir()
	mpd := writeFile(t, dir, "manifest.mpd", func(f *os.File) error {
		m := dashpkg.Generate(media.DramaShow())
		m.Periods[0].AdaptationSets[0].Representations[0].Bandwidth = 0
		return m.Encode(f)
	})
	var out bytes.Buffer
	warnings, errs := run([]string{mpd}, false, &out, io.Discard)
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if warnings == 0 || !strings.Contains(out.String(), "dash-missing-bandwidth") {
		t.Errorf("missing @bandwidth not flagged; warnings=%d output:\n%s", warnings, out.String())
	}
}

// TestLintMPDRefusedTemplateJSON lints an MPD whose video SegmentTimeline
// carries a negative S@r, which clients refuse, with -json: it is a
// warning, reported under dash-invalid-segment-template.
func TestLintMPDRefusedTemplateJSON(t *testing.T) {
	dir := t.TempDir()
	mpd := writeFile(t, dir, "manifest.mpd", func(f *os.File) error {
		m := dashpkg.Generate(media.DramaShow())
		st := *m.Periods[0].AdaptationSets[0].SegmentTemplate
		st.Timeline = &dashpkg.SegmentTimeline{S: []dashpkg.S{{D: st.Duration, R: -3}}}
		m.Periods[0].AdaptationSets[0].SegmentTemplate = &st
		return m.Encode(f)
	})
	var out bytes.Buffer
	warnings, errs := run([]string{mpd}, true, &out, io.Discard)
	if warnings == 0 || errs != 0 {
		t.Fatalf("warnings = %d, errs = %d, want a warning and no error", warnings, errs)
	}
	var doc struct {
		Findings []jsonFinding `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	for _, f := range doc.Findings {
		if f.Rule == "dash-invalid-segment-template" && f.Severity == "WARN" && strings.Contains(f.Message, "negative repeat") {
			return
		}
	}
	t.Fatalf("no dash-invalid-segment-template warning in %+v", doc.Findings)
}

// TestLintContinuesPastErrors is the regression test for the early-return
// bug: a parse failure must not skip the remaining files.
func TestLintContinuesPastErrors(t *testing.T) {
	dir := t.TempDir()
	c := media.DramaShow()
	broken := filepath.Join(dir, "broken.m3u8")
	os.WriteFile(broken, []byte("#EXT-X-STREAM-INF:BANDWIDTH=1"), 0o644)
	badMedia := writeFile(t, dir, "v1.m3u8", func(f *os.File) error {
		return hls.GenerateMedia(c, c.TrackByID("V1"), hls.SegmentFiles, false).Encode(f)
	})
	var out, errOut bytes.Buffer
	warnings, errs := run([]string{broken, badMedia}, false, &out, &errOut)
	if errs != 1 {
		t.Errorf("errs = %d, want 1", errs)
	}
	if warnings == 0 {
		t.Errorf("file after the broken one was not linted; output:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "broken.m3u8") {
		t.Errorf("error output missing broken file: %q", errOut.String())
	}
}

// TestLintBandwidthCrossCheck feeds a master whose BANDWIDTH understates
// the peaks recoverable from its media playlists.
func TestLintBandwidthCrossCheck(t *testing.T) {
	dir := t.TempDir()
	c := media.DramaShow()
	combos := media.HSub(c)
	lying := writeFile(t, dir, "master.m3u8", func(f *os.File) error {
		m := hls.GenerateMaster(c, combos, nil)
		for i := range m.Variants {
			m.Variants[i].Bandwidth /= 2
		}
		return m.Encode(f)
	})
	files := []string{lying}
	for _, tr := range []*media.Track{combos[0].Video, combos[0].Audio} {
		files = append(files, writeFile(t, dir, tr.ID+".m3u8", func(f *os.File) error {
			return hls.GenerateMedia(c, tr, hls.SingleFile, false).Encode(f)
		}))
	}
	var out bytes.Buffer
	warnings, errs := run(files, false, &out, io.Discard)
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if warnings == 0 || !strings.Contains(out.String(), "hls-bandwidth-below-track-sum") {
		t.Errorf("understated BANDWIDTH not flagged; output:\n%s", out.String())
	}
}

// TestLintDirectory expands a directory argument into the manifest files
// beneath it — the mkmanifest output layout (nested video/ and audio/
// subdirectories) must lint without "is a directory" errors.
func TestLintDirectory(t *testing.T) {
	dir := t.TempDir()
	c := media.DramaShow()
	if err := os.MkdirAll(filepath.Join(dir, "video"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "hsub.m3u8", func(f *os.File) error {
		return hls.GenerateMaster(c, media.HSub(c), nil).Encode(f)
	})
	writeFile(t, filepath.Join(dir, "video"), "V1.m3u8", func(f *os.File) error {
		return hls.GenerateMedia(c, c.TrackByID("V1"), hls.SingleFile, false).Encode(f)
	})
	writeFile(t, dir, "notes.txt", func(f *os.File) error { return nil })
	var out bytes.Buffer
	warnings, errs := run([]string{dir}, false, &out, io.Discard)
	if errs != 0 {
		t.Fatalf("errs = %d, output:\n%s", errs, out.String())
	}
	if warnings != 0 {
		t.Errorf("warnings = %d, output:\n%s", warnings, out.String())
	}
	for _, want := range []string{"hsub.m3u8", "V1.m3u8"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("directory expansion missed %s; output:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "notes.txt") {
		t.Errorf("non-manifest file should be skipped; output:\n%s", out.String())
	}
	// A directory with nothing lintable is still a per-path error.
	if _, errs := run([]string{t.TempDir()}, false, io.Discard, io.Discard); errs != 1 {
		t.Error("empty directory should error")
	}
}

func TestLintJSON(t *testing.T) {
	dir := t.TempDir()
	c := media.DramaShow()
	hall := writeFile(t, dir, "hall.m3u8", func(f *os.File) error {
		return hls.GenerateMaster(c, media.HAll(c), nil).Encode(f)
	})
	broken := filepath.Join(dir, "broken.m3u8")
	os.WriteFile(broken, []byte("#EXT-X-STREAM-INF:BANDWIDTH=1"), 0o644)
	var out bytes.Buffer
	warnings, errs := run([]string{hall, broken}, true, &out, io.Discard)
	if warnings == 0 || errs != 1 {
		t.Fatalf("warnings = %d, errs = %d", warnings, errs)
	}
	var doc struct {
		Findings []jsonFinding `json:"findings"`
		Errors   []jsonError   `json:"errors"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(doc.Findings) == 0 || doc.Findings[0].Rule == "" || doc.Findings[0].Severity == "" {
		t.Errorf("findings = %+v", doc.Findings)
	}
	if len(doc.Errors) != 1 || !strings.HasSuffix(doc.Errors[0].File, "broken.m3u8") {
		t.Errorf("errors = %+v", doc.Errors)
	}
}

func TestLintErrors(t *testing.T) {
	if _, errs := run([]string{"/nonexistent.mpd"}, false, io.Discard, io.Discard); errs != 1 {
		t.Error("missing file should error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "x.txt")
	os.WriteFile(bad, []byte("?"), 0o644)
	if _, errs := run([]string{bad}, false, io.Discard, io.Discard); errs != 1 {
		t.Error("unknown extension should error")
	}
	garbled := filepath.Join(dir, "x.m3u8")
	os.WriteFile(garbled, []byte("#EXT-X-STREAM-INF:BANDWIDTH=1"), 0o644)
	if _, errs := run([]string{garbled}, false, io.Discard, io.Discard); errs != 1 {
		t.Error("unparseable playlist should error")
	}
}

func dashGenerate(f *os.File) error {
	return dashpkg.Generate(media.DramaShow()).Encode(f)
}

// TestLintMasterAlignment lints a master alongside its video and audio
// media playlists whose segment boundaries drift apart — the wiring that
// pairs each variant with its audio rendition by base name.
func TestLintMasterAlignment(t *testing.T) {
	dir := t.TempDir()
	const s = time.Second
	mediaPlaylist := func(durs ...time.Duration) *hls.MediaPlaylist {
		p := &hls.MediaPlaylist{TargetDuration: 4 * s, EndList: true}
		var off int64
		for _, d := range durs {
			p.Segments = append(p.Segments, hls.Segment{
				Duration: d, URI: "data.m4s", ByteRangeLength: 1000, ByteRangeOffset: off,
			})
			off += 1000
		}
		return p
	}
	master := writeFile(t, dir, "master.m3u8", func(f *os.File) error {
		m := &hls.MasterPlaylist{
			Renditions: []hls.Rendition{{
				Type: "AUDIO", GroupID: "aud", Name: "A1", URI: "audio/A1.m3u8", Default: true,
			}},
			Variants: []hls.Variant{{
				Bandwidth: 10_000_000, AverageBandwidth: 8_000_000,
				AudioGroup: "aud", URI: "video/V1.m3u8",
			}},
		}
		return m.Encode(f)
	})
	video := writeFile(t, dir, "V1.m3u8", func(f *os.File) error {
		return mediaPlaylist(4*s, 4*s, 4*s, 2*s).Encode(f)
	})
	audio := writeFile(t, dir, "A1.m3u8", func(f *os.File) error {
		// Same total length, but every boundary sits 1 s early.
		return mediaPlaylist(3*s, 4*s, 4*s, 3*s).Encode(f)
	})
	var out bytes.Buffer
	warnings, errs := run([]string{master, video, audio}, false, &out, io.Discard)
	if errs != 0 {
		t.Fatalf("errs = %d, output:\n%s", errs, out.String())
	}
	if warnings == 0 || !strings.Contains(out.String(), "hls-av-misaligned-segments") {
		t.Errorf("misaligned pair not flagged; warnings=%d output:\n%s", warnings, out.String())
	}
	// Realigned audio lints clean end to end.
	aligned := writeFile(t, dir, "A1.m3u8", func(f *os.File) error {
		return mediaPlaylist(4*s, 4*s, 4*s, 2*s).Encode(f)
	})
	out.Reset()
	warnings, errs = run([]string{master, video, aligned}, false, &out, io.Discard)
	if warnings != 0 || errs != 0 {
		t.Errorf("aligned pair should lint clean; warnings=%d errs=%d output:\n%s", warnings, errs, out.String())
	}
}

// TestLintMPDDefaultTimescale lints, with -json, an MPD whose
// SegmentTemplates omit @timescale and give @duration in seconds: the
// attribute defaults to 1, so the templates are valid and the MPD lints
// clean.
func TestLintMPDDefaultTimescale(t *testing.T) {
	dir := t.TempDir()
	c := media.DramaShow()
	var buf bytes.Buffer
	if err := dashpkg.Generate(c).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	doc := strings.ReplaceAll(buf.String(), ` timescale="1000"`, "")
	doc = strings.ReplaceAll(doc, ` duration="5000"`, ` duration="5"`)
	if strings.Contains(doc, "timescale") || !strings.Contains(doc, ` duration="5"`) {
		t.Fatalf("the generated MPD no longer has the expected templates:\n%s", buf.String())
	}
	mpd := filepath.Join(dir, "manifest.mpd")
	if err := os.WriteFile(mpd, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if warnings, errs := run([]string{mpd}, true, &out, io.Discard); warnings != 0 || errs != 0 {
		t.Fatalf("warnings = %d, errs = %d, want a clean lint (exit 0):\n%s", warnings, errs, out.String())
	}
}
