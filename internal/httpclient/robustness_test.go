package httpclient

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/faults"
	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
	"demuxabr/internal/originserver"
)

// pinned is a joint model that always selects one combination — fault tests
// need to know exactly which segment paths will be requested.
type pinned struct {
	abr.NopObserver
	combo media.Combo
}

func (p *pinned) Name() string                      { return "pinned" }
func (p *pinned) SelectCombo(abr.State) media.Combo { return p.combo }

// flakyOrigin wraps a faithful origin with a per-path script of misbehaviors
// consumed one entry per request: "404", "503", "reset", "hang", or "ok"
// (pass through). Requests beyond the script pass through.
type flakyOrigin struct {
	inner http.Handler

	mu     sync.Mutex
	script map[string][]string
	hits   map[string]int
}

func newFlakyOrigin(inner http.Handler, script map[string][]string) *flakyOrigin {
	return &flakyOrigin{inner: inner, script: script, hits: make(map[string]int)}
}

func (f *flakyOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	n := f.hits[r.URL.Path]
	f.hits[r.URL.Path] = n + 1
	steps := f.script[r.URL.Path]
	f.mu.Unlock()
	step := "ok"
	if n < len(steps) {
		step = steps[n]
	}
	switch step {
	case "404":
		http.Error(w, "scripted 404", http.StatusNotFound)
	case "503":
		http.Error(w, "scripted 503", http.StatusServiceUnavailable)
	case "reset":
		panic(http.ErrAbortHandler)
	case "hang":
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		panic(http.ErrAbortHandler)
	default:
		f.inner.ServeHTTP(w, r)
	}
}

// fastPolicy keeps retry latency test-sized.
func fastPolicy() *faults.Policy {
	pol := faults.DefaultPolicy()
	pol.RequestTimeout = 500 * time.Millisecond
	pol.BaseBackoff = 5 * time.Millisecond
	pol.MaxBackoff = 20 * time.Millisecond
	return &pol
}

func lowCombo(m *Manifest) media.Combo {
	return media.Combo{Video: m.Content.VideoTracks[0], Audio: m.Content.AudioTracks[0]}
}

func TestManifestFetchFailureSurfacesStatus(t *testing.T) {
	content := tinyContent()
	flaky := newFlakyOrigin(originserver.New(content, originserver.Options{}).Handler(),
		map[string][]string{"/manifest.mpd": {"503"}})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	_, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want a 503 manifest error, got %v", err)
	}
	// The origin recovered: the next fetch must succeed over the same client.
	if _, err := FetchManifest(context.Background(), srv.Client(), srv.URL); err != nil {
		t.Fatalf("recovered origin still failing: %v", err)
	}
}

func TestMidSessionFailureReturnsPartialReport(t *testing.T) {
	content := tinyContent()
	flaky := newFlakyOrigin(originserver.New(content, originserver.Options{}).Handler(),
		map[string][]string{"/video/V1/seg-2.m4s": {"404"}})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
	})
	if err == nil {
		t.Fatal("policy-less session survived a 404")
	}
	if rep == nil {
		t.Fatal("error return discarded the partial report")
	}
	if len(rep.Chunks) != 2 {
		t.Errorf("partial report carries %d chunks, want the 2 fetched before the failure", len(rep.Chunks))
	}
	if rep.Elapsed <= 0 {
		t.Error("partial report missing Elapsed")
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Index != 2 || rep.Faults[0].Type != media.Video {
		t.Errorf("fault log = %+v, want one video fault at index 2", rep.Faults)
	}
}

func TestPolicyRetriesScriptedTransients(t *testing.T) {
	content := tinyContent()
	// Three different transient failure modes, one per early video segment;
	// every retry hits a recovered origin.
	flaky := newFlakyOrigin(originserver.New(content, originserver.Options{}).Handler(),
		map[string][]string{
			"/video/V1/seg-0.m4s": {"503"},
			"/video/V1/seg-1.m4s": {"reset"},
			"/video/V1/seg-2.m4s": {"hang"},
			"/audio/A1/seg-1.m4s": {"404"},
		})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	// Fresh connections per request: net/http transparently replays a GET
	// whose reused keep-alive connection was reset, which would absorb the
	// scripted reset before the policy ever saw it.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	m, err := FetchManifest(context.Background(), client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   client,
		TargetBuffer: 30 * time.Second,
		MaxChunks:    5,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("robust session failed: %v (report %+v)", err, rep)
	}
	if len(rep.Chunks) != 5 {
		t.Fatalf("fetched %d chunks, want 5", len(rep.Chunks))
	}
	if len(rep.Faults) != 4 {
		t.Errorf("recorded %d faults, want 4 (one per scripted failure)", len(rep.Faults))
	}
	if rep.Retries != 4 {
		t.Errorf("retries = %d, want 4", rep.Retries)
	}
	if rep.Failovers != 0 {
		t.Errorf("failovers = %d for transient faults, want 0", rep.Failovers)
	}
}

func TestPersistentTrackFailureFailsOverHTTP(t *testing.T) {
	content := tinyContent()
	// A1 is permanently gone at the origin. The session must finish on a
	// different audio track.
	plan := &faults.Plan{
		Seed: 4, Rate: 1,
		Kinds:          []faults.Kind{faults.HTTP404},
		Targets:        []string{"A1"},
		MaxPersistence: -1,
	}
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)}, // keeps asking for A1
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    4,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("failover session failed: %v", err)
	}
	if rep.Failovers == 0 {
		t.Fatal("no failover recorded for a dead track")
	}
	for _, ch := range rep.Chunks {
		if ch.Combo.Audio.ID == "A1" {
			t.Fatalf("chunk %d reported as fetched from the dead track", ch.Index)
		}
	}
}

func TestTruncatedBodyDetected(t *testing.T) {
	content := tinyContent()
	plan := &faults.Plan{
		Seed: 8, Rate: 1,
		Kinds:          []faults.Kind{faults.Truncate},
		Targets:        []string{"V1"},
		MaxPersistence: 1,
	}
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Policy off: the first truncated body must fail the session, and the
	// partial report must name the truncation.
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    2,
	})
	if err == nil {
		t.Fatal("truncated body passed as success")
	}
	// net/http reports the short read as unexpected EOF when it enforces
	// the declared Content-Length itself; the client's own length check
	// catches transports that don't.
	if !strings.Contains(err.Error(), "truncated body") && !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("error %v does not identify the truncation", err)
	}
	if rep == nil || len(rep.Faults) == 0 {
		t.Fatal("truncation missing from the partial report's fault log")
	}
	// Policy on over a fresh origin (fresh attempt counters): the transient
	// truncation clears on retry and the session completes.
	srv2 := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv2.Close()
	rep, err = Stream(context.Background(), m, Config{
		BaseURL:      srv2.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv2.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    2,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("robust session failed on transient truncation: %v", err)
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded for transient truncations")
	}
}

func TestStreamSurvivesPlannedFaultMix(t *testing.T) {
	content := tinyContent()
	plan := &faults.Plan{
		Seed: 17, Rate: 0.4,
		Kinds:          []faults.Kind{faults.HTTP404, faults.HTTP503, faults.Reset},
		MaxPersistence: 1,
	}
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Faults: plan}).Handler())
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: lowCombo(m)},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("robust session failed under a 40%% transient fault mix: %v", err)
	}
	if len(rep.Chunks) != content.NumChunks() {
		t.Fatalf("fetched %d chunks, want %d", len(rep.Chunks), content.NumChunks())
	}
	if len(rep.Faults) == 0 || rep.Retries == 0 {
		t.Errorf("fault mix produced faults=%d retries=%d, want both > 0", len(rep.Faults), rep.Retries)
	}
}

// mutatedMPDServer serves a Generate'd MPD after fn edits it, plus faithful
// segments from the inner origin.
func mutatedMPDServer(t *testing.T, content *media.Content, fn func(*dash.MPD)) *httptest.Server {
	t.Helper()
	inner := originserver.New(content, originserver.Options{}).Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("/manifest.mpd", func(w http.ResponseWriter, r *http.Request) {
		mpd := dash.Generate(content)
		fn(mpd)
		w.Header().Set("Content-Type", "application/dash+xml")
		if err := mpd.Encode(w); err != nil {
			t.Errorf("encode: %v", err)
		}
	})
	mux.Handle("/", inner)
	return httptest.NewServer(mux)
}

func TestFetchManifestHonorsPerSetTemplates(t *testing.T) {
	// Templates that do NOT start with "<type>/" — the old client rewrote
	// the video template with a "video/" -> "$TYPE$/" substitution, which
	// broke any other layout and silently mis-addressed audio segments.
	content := tinyContent()
	srv := mutatedMPDServer(t, content, func(mpd *dash.MPD) {
		sets := mpd.Periods[0].AdaptationSets
		sets[0].SegmentTemplate.Media = "media/v/$RepresentationID$-$Number$.m4s"
		sets[1].SegmentTemplate.Media = "media/a/$RepresentationID$-$Number$.m4s"
	})
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.SegmentPath(m.Content.VideoTracks[2], 7); got != "media/v/V3-7.m4s" {
		t.Errorf("video segment path = %q", got)
	}
	if got := m.SegmentPath(m.Content.AudioTracks[1], 0); got != "media/a/A2-0.m4s" {
		t.Errorf("audio segment path = %q", got)
	}
}

func TestFetchManifestRejectsUnaddressableTemplate(t *testing.T) {
	content := tinyContent()
	srv := mutatedMPDServer(t, content, func(mpd *dash.MPD) {
		mpd.Periods[0].AdaptationSets[1].SegmentTemplate.Media = "audio/fixed-name.m4s"
	})
	defer srv.Close()
	_, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "cannot address segments") {
		t.Fatalf("unaddressable template accepted: %v", err)
	}
}

func TestFetchManifestRejectsDuplicateRepresentationIDs(t *testing.T) {
	// Segment addresses, the blacklist and failover all key tracks by ID, so
	// two Representations sharing one would stream each other's segments.
	content := tinyContent()
	srv := mutatedMPDServer(t, content, func(mpd *dash.MPD) {
		mpd.Periods[0].AdaptationSets[0].Representations[1].ID = "V1"
	})
	defer srv.Close()
	_, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err == nil || !strings.Contains(err.Error(), "duplicate track ID") {
		t.Fatalf("duplicate Representation@id accepted: %v", err)
	}
}

// encoder is a master or media playlist.
type encoder interface{ Encode(io.Writer) error }

// mutatedHLSServer serves each playlist in playlists at its request path,
// and everything else (segments, untouched playlists) from the faithful
// origin.
func mutatedHLSServer(t *testing.T, content *media.Content, playlists map[string]encoder) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	for path, pl := range playlists {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/vnd.apple.mpegurl")
			if err := pl.Encode(w); err != nil {
				t.Errorf("encode %s: %v", path, err)
			}
		})
	}
	mux.Handle("/", originserver.New(content, originserver.Options{}).Handler())
	return httptest.NewServer(mux)
}

func TestFetchHLSRejectsDuplicateTrackIDs(t *testing.T) {
	// Track IDs come from the playlist base name (video) and the rendition
	// NAME (audio); two playlists mapping to one ID would share a segment
	// list, so a variant could stream another track's segments while
	// declaring its own bitrate.
	content := tinyContent()
	for _, tc := range []struct {
		name string
		edit func(*hls.MasterPlaylist, map[string]encoder)
	}{
		{"same video base name", func(m *hls.MasterPlaylist, playlists map[string]encoder) {
			m.Variants[1].URI = "alt/V1.m3u8"
			playlists["/alt/V1.m3u8"] = hls.GenerateMedia(content, content.VideoTracks[1], hls.SegmentFiles, true)
		}},
		{"rendition named like a video track", func(m *hls.MasterPlaylist, _ map[string]encoder) {
			m.Renditions[0].Name = "V1"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			master := hls.GenerateMaster(content, media.HSub(content), nil)
			playlists := map[string]encoder{"/master.m3u8": master}
			tc.edit(master, playlists)
			srv := mutatedHLSServer(t, content, playlists)
			defer srv.Close()
			_, err := FetchHLS(context.Background(), srv.Client(), srv.URL)
			if err == nil || !strings.Contains(err.Error(), "duplicate track ID") {
				t.Fatalf("duplicate track ID accepted: %v", err)
			}
		})
	}
}

func TestStreamHLSPlaysOnlyWhatEveryTrackServes(t *testing.T) {
	// An encoder cut one track short: only positions every track can serve
	// are playable, so the shortest media playlist sets the chunk count.
	content := tinyContent()
	short := hls.GenerateMedia(content, content.VideoTracks[1], hls.SegmentFiles, true)
	short.Segments = short.Segments[:20]
	srv := mutatedHLSServer(t, content, map[string]encoder{"/video/V2.m3u8": short})
	defer srv.Close()
	m, err := FetchHLS(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        &pinned{combo: m.Variants[5]},
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chunks) != 20 {
		t.Fatalf("streamed %d chunks, want 20 (the cut-short track's count)", len(rep.Chunks))
	}
}

func TestStreamZeroValueManifestErrors(t *testing.T) {
	if _, err := Stream(context.Background(), &Manifest{}, Config{Model: &pinned{}}); err == nil {
		t.Fatal("a manifest with no content streamed without error")
	}
}

// recording is a pinned model that logs every transfer event it observes,
// in call order (the streamer serializes observer calls).
type recording struct {
	pinned
	events []recordedEvent
}

type recordedEvent struct {
	kind string // "start", "progress" or "complete"
	info abr.TransferInfo
}

func (r *recording) OnStart(ti abr.TransferInfo) {
	r.events = append(r.events, recordedEvent{"start", ti})
}
func (r *recording) OnProgress(ti abr.TransferInfo) {
	r.events = append(r.events, recordedEvent{"progress", ti})
}
func (r *recording) OnComplete(ti abr.TransferInfo) {
	r.events = append(r.events, recordedEvent{"complete", ti})
}

// TestTransferEventsUseTheSessionClock: TransferInfo.At is session time,
// like abr.State.Now, so the events of one type never run backwards — a
// chunk's request starts no earlier than the previous one (or a failed try
// of the same chunk) completed, retries included.
func TestTransferEventsUseTheSessionClock(t *testing.T) {
	content := tinyContent()
	flaky := newFlakyOrigin(originserver.New(content, originserver.Options{}).Handler(),
		map[string][]string{"/video/V1/seg-2.m4s": {"503"}})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	m, err := FetchManifest(context.Background(), srv.Client(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	model := &recording{pinned: pinned{combo: lowCombo(m)}}
	rep, err := Stream(context.Background(), m, Config{
		BaseURL:      srv.URL,
		Model:        model,
		HTTPClient:   srv.Client(),
		TargetBuffer: 30 * time.Second,
		MaxChunks:    6,
		Robustness:   fastPolicy(),
	})
	if err != nil {
		t.Fatalf("session failed: %v", err)
	}
	if rep.Retries != 1 {
		t.Fatalf("retries = %d, want the 1 scripted", rep.Retries)
	}
	for _, typ := range []media.Type{media.Video, media.Audio} {
		var last time.Duration
		starts := 0
		for _, ev := range model.events {
			if ev.info.Type != typ {
				continue
			}
			if ev.info.At < last {
				t.Fatalf("%s %s event at %v, after an event at %v", typ, ev.kind, ev.info.At, last)
			}
			last = ev.info.At
			if ev.kind == "start" {
				starts++
			}
		}
		want := 6
		if typ == media.Video {
			want++ // the retried segment
		}
		if starts != want {
			t.Errorf("%s: %d requests started, want %d", typ, starts, want)
		}
	}
}
