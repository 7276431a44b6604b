package httpclient

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/media"
	"demuxabr/internal/originserver"
)

func tinyContent() *media.Content {
	// 24 one-second chunks: long enough for the unshaped stream to build a
	// >10 s buffer (ExoPlayer's up-switch hysteresis), short enough to
	// download in well under a second on localhost.
	return media.MustNewContent(media.ContentSpec{
		Name:          "tiny",
		Duration:      24 * time.Second,
		ChunkDuration: time.Second,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.CBRChunkModel(),
	})
}

func TestFetchManifest(t *testing.T) {
	content := tinyContent()
	srv := httptest.NewServer(originserver.New(content, originserver.Options{}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m.Content.ChunkDuration != time.Second {
		t.Errorf("chunk duration = %v, want 1s", m.Content.ChunkDuration)
	}
	if got := m.SegmentPath(m.Content.VideoTracks[0], 3); got != "video/V1/seg-3.m4s" {
		t.Errorf("segment path = %q", got)
	}
	if got := m.SegmentPath(m.Content.AudioTracks[1], 0); got != "audio/A2/seg-0.m4s" {
		t.Errorf("audio segment path = %q", got)
	}
}

func TestFetchManifestBadURL(t *testing.T) {
	if _, err := FetchManifest(context.Background(), nil, "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable origin should fail")
	}
}

func TestStreamEndToEndExoPlayer(t *testing.T) {
	content := tinyContent()
	srv := httptest.NewServer(originserver.New(content, originserver.Options{}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	model := exoplayer.NewDASH(m.Content.VideoTracks, m.Content.AudioTracks)
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        model,
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second, // no pacing pauses in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chunks) != content.NumChunks() {
		t.Fatalf("fetched %d chunks, want %d", len(rep.Chunks), content.NumChunks())
	}
	if rep.TotalBytes == 0 {
		t.Error("no bytes fetched")
	}
	// Unshaped localhost: the estimate should rocket, selections climb the
	// predetermined staircase, and every pair must be predetermined.
	pre := map[string]bool{}
	for _, cb := range model.Combos() {
		pre[cb.String()] = true
	}
	for _, ch := range rep.Chunks {
		if !pre[ch.Combo.String()] {
			t.Errorf("chunk %d: combo %s not predetermined", ch.Index, ch.Combo)
		}
	}
	last := rep.Chunks[len(rep.Chunks)-1].Combo
	if last.DeclaredBitrate() <= rep.Chunks[0].Combo.DeclaredBitrate() {
		t.Errorf("no upswitch on an unshaped link: first %s, last %s", rep.Chunks[0].Combo, last)
	}
}

func TestStreamEndToEndBestPractice(t *testing.T) {
	content := tinyContent()
	// Shape to ~1.5 Mbps: the best-practice player must hold a low-to-mid
	// H_sub combination and finish without error.
	shaper := originserver.NewTokenBucket(media.Kbps(1500), 16*1024)
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Shaper: shaper}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	allowed := media.PairCombos(m.Content.VideoTracks, m.Content.AudioTracks)
	model := jointabr.New(allowed)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Stream(ctx, m, Config{
		BaseURL:      srv.URL,
		Model:        model,
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chunks) != 4 {
		t.Fatalf("fetched %d chunks, want 4", len(rep.Chunks))
	}
	inAllowed := func(cb media.Combo) bool {
		for _, a := range allowed {
			if a.String() == cb.String() {
				return true
			}
		}
		return false
	}
	for _, ch := range rep.Chunks {
		if !inAllowed(ch.Combo) {
			t.Errorf("chunk %d: combo %s outside the allowed list", ch.Index, ch.Combo)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	content := tinyContent()
	shaper := originserver.NewTokenBucket(media.Kbps(100), 1024) // crawl
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Shaper: shaper}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err = Stream(ctx, m, Config{
		BaseURL:    srv.URL,
		Model:      exoplayer.NewDASH(m.Content.VideoTracks, m.Content.AudioTracks),
		HTTPClient: srv.Client(),
	})
	if err == nil {
		t.Error("expected cancellation error on a crawling link")
	}
}

func TestStreamRequiresModel(t *testing.T) {
	if _, err := Stream(context.Background(), &Manifest{}, Config{}); err == nil {
		t.Error("nil model should fail")
	}
}

func TestFetchHLSRecoversTracks(t *testing.T) {
	content := tinyContent()
	srv := httptest.NewServer(originserver.New(content, originserver.Options{}).Handler())
	defer srv.Close()
	m, err := FetchHLS(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Variants) != 6 {
		t.Fatalf("variants = %d, want 6 (H_sub)", len(m.Variants))
	}
	if m.Content.ChunkDuration != time.Second {
		t.Errorf("chunk duration = %v, want 1s", m.Content.ChunkDuration)
	}
	// Recovered bitrates must be near the true per-track averages — the
	// §4.1 point: the information IS available one level down.
	for _, v := range m.Variants {
		truth := content.TrackByID(v.Video.ID)
		rel := float64(v.Video.AvgBitrate-truth.AvgBitrate) / float64(truth.AvgBitrate)
		if rel < -0.1 || rel > 0.1 {
			t.Errorf("%s recovered avg %v vs true %v", v.Video.ID, v.Video.AvgBitrate, truth.AvgBitrate)
		}
	}
	if got := m.SegmentPath(m.Variants[2].Video, 1); got != "video/V3/seg-1.m4s" {
		t.Errorf("segment path = %q", got)
	}
	if got := m.SegmentPath(m.Variants[0].Video, 999); got != "" {
		t.Errorf("out-of-range segment path = %q", got)
	}
}

func TestStreamHLSRepairedEndToEnd(t *testing.T) {
	// The full §4.1 flow over real HTTP: master playlist -> media
	// playlists -> per-track bitrates -> repaired joint adaptation.
	content := tinyContent()
	srv := httptest.NewServer(originserver.New(content, originserver.Options{}).Handler())
	defer srv.Close()
	m, err := FetchHLS(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	model := exoplayer.NewHLSRepaired(m.Variants)
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        model,
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chunks) != content.NumChunks() {
		t.Fatalf("chunks = %d, want %d", len(rep.Chunks), content.NumChunks())
	}
	listed := map[string]bool{}
	for _, v := range m.Variants {
		listed[v.String()] = true
	}
	audioSeen := map[string]bool{}
	for _, ch := range rep.Chunks {
		if !listed[ch.Combo.String()] {
			t.Errorf("chunk %d: %s not a listed variant", ch.Index, ch.Combo)
		}
		audioSeen[ch.Combo.Audio.ID] = true
	}
	// On an unshaped link the repaired player must climb to A3 — audio
	// adaptation works again.
	if !audioSeen["A3"] {
		t.Errorf("audio never reached A3: %v", audioSeen)
	}
}

func TestFetchHLSErrors(t *testing.T) {
	if _, err := FetchHLS(context.Background(), nil, "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable origin should fail")
	}
}

func TestFetchCombinationsOutOfBand(t *testing.T) {
	// §4.1's short-term DASH workaround over real HTTP: the MPD gives the
	// ladders, /combinations.json gives the allowed pairings, and the
	// best-practice player streams strictly within them.
	content := tinyContent()
	srv := httptest.NewServer(originserver.New(content, originserver.Options{}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	combos, err := FetchCombinations(context.Background(), srv.Client(), srv.URL, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 6 {
		t.Fatalf("combos = %d, want 6 (H_sub default)", len(combos))
	}
	wantNames := []string{"V1+A1", "V2+A1", "V3+A2", "V4+A2", "V5+A3", "V6+A3"}
	for i, cb := range combos {
		if cb.String() != wantNames[i] {
			t.Errorf("combo %d = %s, want %s", i, cb, wantNames[i])
		}
	}
	model := jointabr.New(combos)
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        model,
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, cb := range combos {
		listed[cb.String()] = true
	}
	for _, ch := range rep.Chunks {
		if !listed[ch.Combo.String()] {
			t.Errorf("chunk %d: %s outside the out-of-band list", ch.Index, ch.Combo)
		}
	}
}

func TestFetchCombinationsErrors(t *testing.T) {
	if _, err := FetchCombinations(context.Background(), nil, "http://127.0.0.1:1", &Manifest{}); err == nil {
		t.Error("unreachable origin should fail")
	}
}

// shapedContent is a 12 s title with explicit per-type chunk tables on the
// millisecond grid both manifests can carry exactly.
func shapedContent(t *testing.T, video, audio []time.Duration) *media.Content {
	t.Helper()
	c, err := media.NewContent(media.ContentSpec{
		Name:          "shaped",
		Duration:      12 * time.Second,
		ChunkDuration: 2 * time.Second,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.CBRChunkModel(),
		VideoChunks:   video,
		AudioChunks:   audio,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// shapedChunks is an irregular table summing to 12 s.
func shapedChunks() []time.Duration {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []time.Duration{ms(1500), ms(2250), ms(750), ms(3000), ms(1500), ms(2000), ms(1000)}
}

// checkContent fails unless got has want's ladders (IDs and types in
// order, and the declared bitrates when exact) and, for both types, want's
// chunk timeline: exactly when exact, else every chunk duration within
// half a millisecond (EXTINF's precision).
func checkContent(t *testing.T, got, want *media.Content, exact bool) {
	t.Helper()
	for _, l := range [][2]media.Ladder{{got.VideoTracks, want.VideoTracks}, {got.AudioTracks, want.AudioTracks}} {
		if len(l[0]) != len(l[1]) {
			t.Fatalf("ladder %v, want %v", l[0].IDs(), l[1].IDs())
		}
		for i, tr := range l[0] {
			w := l[1][i]
			if tr.ID != w.ID || tr.Type != w.Type || (exact && tr.DeclaredBitrate != w.DeclaredBitrate) {
				t.Errorf("track %d = %s %s %v, want %s %s %v", i, tr.ID, tr.Type, tr.DeclaredBitrate, w.ID, w.Type, w.DeclaredBitrate)
			}
		}
	}
	for _, typ := range []media.Type{media.Video, media.Audio} {
		g, w := got.ChunkTimeline(typ), want.ChunkTimeline(typ)
		if exact {
			if !slices.Equal(g, w) {
				t.Errorf("%s timeline %v, want %v", typ, g, w)
			}
			continue
		}
		if len(g) != len(w) {
			t.Fatalf("%s timeline has %d chunks, want %d", typ, len(g)-1, len(w)-1)
		}
		for i := 1; i < len(g); i++ {
			if d := (g[i] - g[i-1]) - (w[i] - w[i-1]); d < -time.Millisecond/2 || d > time.Millisecond/2 {
				t.Errorf("%s chunk %d lasts %v, want %v", typ, i-1, g[i]-g[i-1], w[i]-w[i-1])
			}
		}
	}
}

// TestManifestsReadBackTheOriginContent is the structural half of the
// sim-vs-real oracle: the content the client reads from the origin's MPD
// is the content the origin serves, and the content it reads from the HLS
// playlists has the same tracks and timelines.
func TestManifestsReadBackTheOriginContent(t *testing.T) {
	tiny := tinyContent()
	a := tiny.AudioTracks
	for _, tc := range []struct {
		name    string
		content *media.Content
		opts    originserver.Options
	}{
		{"uniform", tiny, originserver.Options{}},
		{"shaped aligned", shapedContent(t, shapedChunks(), shapedChunks()), originserver.Options{}},
		// The client's ladders ascend by bitrate whatever order the master
		// lists its renditions in.
		{"renditions high to low", tiny, originserver.Options{AudioOrder: []*media.Track{a[2], a[1], a[0]}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(originserver.New(tc.content, tc.opts).Handler())
			defer srv.Close()
			m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			checkContent(t, m.Content, tc.content, true)
			h, err := FetchHLS(context.Background(), srv.Client(), srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			checkContent(t, h.Content, tc.content, false)
		})
	}
}

func TestMisalignedTimelinesAreRefused(t *testing.T) {
	// Irregular video chunks over uniform 2 s audio: a faithful read of the
	// MPD, which this joint-index client then refuses to stream. The HLS
	// playlists differ in segment count, so cutting both to the shortest
	// leaves timelines of different lengths.
	content := shapedContent(t, shapedChunks(), nil)
	srv := httptest.NewServer(originserver.New(content, originserver.Options{}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	checkContent(t, m.Content, content, true)
	_, err = Stream(context.Background(), m, Config{
		BaseURL:    srv.URL,
		Model:      &pinned{combo: lowCombo(m)},
		HTTPClient: srv.Client(),
	})
	if err == nil || !strings.Contains(err.Error(), "timelines disagree") {
		t.Fatalf("misaligned DASH stream: %v", err)
	}
	if _, err := FetchHLS(context.Background(), srv.Client(), srv.URL); err == nil || !strings.Contains(err.Error(), "timelines disagree") {
		t.Fatalf("misaligned HLS playlists: %v", err)
	}
}
