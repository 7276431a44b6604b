// Package httpclient is a real-time streaming client: it fetches a DASH
// manifest or the HLS playlists from an origin (package originserver or
// any server with the same layout), reads them into a media.Content, and
// streams chunks over real HTTP while driving one of the library's ABR
// models — the end-to-end integration path complementing the
// discrete-event simulator.
package httpclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/faults"
	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/media"
)

// Manifest is the client's view of a fetched stream, read from a DASH MPD
// (FetchManifest) or from an HLS master playlist and every media playlist
// it lists (FetchHLS).
//
// Content holds what the manifest declares — the two ladders and each
// type's chunk boundary table — built by media.NewContent, so the client
// times chunks from the same tables the simulator reads. Its chunk sizes
// are a CBR estimate from the declared bitrates; the client never reads
// them.
type Manifest struct {
	Content *media.Content
	// Variants are the HLS master playlist's combinations, in playlist
	// order, with per-track bitrates recovered from the media playlists;
	// nil for DASH.
	Variants []media.Combo

	segURIs map[string][]string // track ID -> origin-relative path per chunk
}

// SegmentPath returns the origin-relative path of chunk idx of the track,
// or "" when the manifest lists no such segment.
func (m *Manifest) SegmentPath(tr *media.Track, idx int) string {
	uris := m.segURIs[tr.ID]
	if idx < 0 || idx >= len(uris) {
		return ""
	}
	return uris[idx]
}

// errMisaligned refuses a stream whose audio and video chunk edges differ.
// This client fetches audio and video at the same chunk index, so it would
// pair chunk i of one timeline with an overlapping-but-different chunk i
// of the other; shaped per-type timelines need an index-independent client
// (the simulator's per-type models).
var errMisaligned = errors.New("httpclient: audio and video segment timelines disagree; this joint-index client requires aligned timelines")

// newManifest builds the client's view from the ladders, each type's
// per-segment durations (indexed by media.Type) and each track's segment
// paths. Segment paths, the blacklist and failover all key tracks by ID,
// so two tracks sharing one would stream each other's segments.
func newManifest(video, audio media.Ladder, segs [2][]time.Duration, segURIs map[string][]string, variants []media.Combo) (*Manifest, error) {
	seen := make(map[string]bool)
	for _, tr := range slices.Concat(video, audio) {
		if seen[tr.ID] {
			return nil, fmt.Errorf("httpclient: duplicate track ID %q", tr.ID)
		}
		seen[tr.ID] = true
	}
	var total [2]time.Duration
	var longest time.Duration
	for typ, durs := range segs {
		for _, d := range durs {
			total[typ] += d
			longest = max(longest, d)
		}
	}
	if total[media.Video] != total[media.Audio] {
		return nil, errMisaligned
	}
	c, err := media.NewContent(media.ContentSpec{
		Duration:      total[media.Video],
		ChunkDuration: longest,
		VideoTracks:   video,
		AudioTracks:   audio,
		Model:         media.CBRChunkModel(),
		VideoChunks:   segs[media.Video],
		AudioChunks:   segs[media.Audio],
	})
	if err != nil {
		return nil, fmt.Errorf("httpclient: %w", err)
	}
	return &Manifest{Content: c, Variants: variants, segURIs: segURIs}, nil
}

// drainAndClose consumes up to 64 KiB of a response body before closing so
// the keep-alive connection can be reused — exactly the error-heavy paths
// where reconnecting hurts most.
func drainAndClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// FetchManifest downloads and parses baseURL/manifest.mpd, expanding each
// AdaptationSet's SegmentTemplate into per-track segment paths numbered
// from the template's FirstNumber. A nil client uses http.DefaultClient.
func FetchManifest(ctx context.Context, client *http.Client, baseURL string) (*Manifest, error) {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := get(ctx, client, baseURL+"/manifest.mpd")
	if err != nil {
		return nil, err
	}
	mpd, err := dash.Parse(body)
	body.Close()
	if err != nil {
		return nil, err
	}
	video, audio, err := dash.Ladders(mpd)
	if err != nil {
		return nil, err
	}
	dur, err := dash.ParseDuration(mpd.MediaPresentationDuration)
	if err != nil {
		return nil, err
	}
	var segs [2][]time.Duration
	var templates [2]string
	var first [2]int64
	// Each AdaptationSet carries its own SegmentTemplate; the set's
	// declared content type says which ladder it addresses. No assumption
	// is made about the template's path shape.
	for i, as := range mpd.Periods[0].AdaptationSets {
		var typ media.Type
		switch as.ContentType {
		case "video":
			typ = media.Video
		case "audio":
			typ = media.Audio
		default:
			return nil, fmt.Errorf("httpclient: AdaptationSet %d has unsupported contentType %q", i, as.ContentType)
		}
		st := as.SegmentTemplate
		if st == nil {
			return nil, fmt.Errorf("httpclient: %s AdaptationSet lacks a usable SegmentTemplate", as.ContentType)
		}
		if !strings.Contains(st.Media, "$RepresentationID$") || !strings.Contains(st.Media, "$Number$") {
			return nil, fmt.Errorf("httpclient: cannot address segments with media template %q (need $RepresentationID$ and $Number$)", st.Media)
		}
		if segs[typ], err = st.SegmentDurations(dur); err != nil {
			return nil, fmt.Errorf("httpclient: %s AdaptationSet: %w", as.ContentType, err)
		}
		templates[typ] = st.Media
		first[typ] = st.FirstNumber()
	}
	if templates[media.Video] == "" || templates[media.Audio] == "" {
		return nil, fmt.Errorf("httpclient: MPD must declare one video and one audio AdaptationSet")
	}
	segURIs := make(map[string][]string)
	for _, tr := range slices.Concat(video, audio) {
		tmpl := strings.ReplaceAll(templates[tr.Type], "$RepresentationID$", tr.ID)
		uris := make([]string, len(segs[tr.Type]))
		for i := range uris {
			uris[i] = strings.ReplaceAll(tmpl, "$Number$", strconv.FormatInt(first[tr.Type]+int64(i), 10))
		}
		segURIs[tr.ID] = uris
	}
	return newManifest(video, audio, segs, segURIs, nil)
}

// Config parameterizes a streaming run.
type Config struct {
	// BaseURL is the origin root (no trailing slash).
	BaseURL string
	// Model is the joint adaptation algorithm (e.g. exoplayer.NewDASH or
	// jointabr.New built from the fetched manifest).
	Model abr.JointAlgorithm
	// TargetBuffer pauses fetching while this much content is buffered
	// ahead of playback. Default 10 s.
	TargetBuffer time.Duration
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxChunks limits the session length (0 = whole content).
	MaxChunks int
	// Robustness enables per-request timeouts, seeded-backoff retries,
	// per-track blacklisting and failover. Nil keeps the legacy fail-fast
	// behaviour: the first fetch error ends the session.
	Robustness *faults.Policy
	// RetrySeed keys the backoff jitter (default 1).
	RetrySeed int64
}

// ChunkFetch records one downloaded chunk.
type ChunkFetch struct {
	Index int
	// Combo is the pair actually fetched — after any failover, which may
	// differ from what the model selected.
	Combo    media.Combo
	Bytes    int64
	Duration time.Duration
}

// FaultRecord is one failed segment request on the real HTTP path.
type FaultRecord struct {
	// Path is the segment path that failed; Type and Index locate it.
	Path  string
	Type  media.Type
	Index int
	// Attempt is which try failed (0 = the first request to this track).
	Attempt int
	// At is the offset from session start.
	At time.Duration
	// Err is the failure's error string.
	Err string
}

// Report summarizes a real-time streaming session.
type Report struct {
	Chunks     []ChunkFetch
	TotalBytes int64
	Elapsed    time.Duration
	// Rebuffered is wall time during which playback would have been
	// stalled (playback clock caught up with the downloaded frontier).
	Rebuffered   time.Duration
	StartupDelay time.Duration
	// Faults lists every failed segment request, in detection order.
	Faults []FaultRecord
	// Retries counts re-issued requests; Failovers counts track
	// substitutions after a track's attempt budget was spent.
	Retries   int
	Failovers int
}

// Stream plays the manifest's content from the origin in real time. On
// error it returns the partial Report accumulated so far (chunks fetched,
// stall time, fault log) alongside the error — never nil with a non-nil
// error once the session has started.
func Stream(ctx context.Context, m *Manifest, cfg Config) (*Report, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("httpclient: nil model")
	}
	if m.Content == nil {
		return nil, fmt.Errorf("httpclient: manifest has no content")
	}
	if !m.Content.Aligned() {
		return nil, errMisaligned
	}
	if cfg.TargetBuffer <= 0 {
		cfg.TargetBuffer = 10 * time.Second
	}
	client := cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	// starts[i] is where chunk i begins and starts[i+1] where it ends: the
	// download frontier after it, whatever the timeline's shape.
	starts := m.Content.ChunkTimeline(media.Video)
	n := len(starts) - 1
	if cfg.MaxChunks > 0 && cfg.MaxChunks < n {
		n = cfg.MaxChunks
	}
	rep := &Report{}
	begin := time.Now()
	s := &streamer{cfg: cfg, client: client, m: m, rep: rep, begin: begin}
	if cfg.Robustness != nil {
		pol := cfg.Robustness.WithDefaults()
		s.pol = &pol
		s.bl = faults.NewBlacklist()
	}
	var frontier time.Duration // downloaded content
	var playStart time.Time    // set at first chunk
	var stalled time.Duration

	playPos := func(now time.Time) time.Duration {
		if playStart.IsZero() {
			return 0
		}
		pos := now.Sub(playStart) - stalled
		if pos > frontier {
			// The playback clock cannot pass the frontier; the excess is
			// rebuffering.
			stalled += pos - frontier
			pos = frontier
		}
		return pos
	}
	// finish stamps the totals so even an error return carries the partial
	// session.
	finish := func(err error) (*Report, error) {
		playPos(time.Now())
		rep.Elapsed = time.Since(begin)
		rep.Rebuffered = stalled
		return rep, err
	}

	for idx := 0; idx < n; idx++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		now := time.Now()
		pos := playPos(now)
		buffered := frontier - pos
		st := abr.State{
			Now:           now.Sub(begin),
			PlayPos:       pos,
			VideoBuffer:   buffered,
			AudioBuffer:   buffered,
			ChunkIndex:    idx,
			ChunkDuration: m.Content.ChunkDuration,
			Startup:       playStart.IsZero(),
		}
		combo := cfg.Model.SelectCombo(st)
		if combo.Video == nil || combo.Audio == nil {
			return finish(fmt.Errorf("httpclient: model returned incomplete combo at chunk %d", idx))
		}
		bytes, dur, fetched, err := s.fetchPair(ctx, combo, idx)
		if err != nil {
			return finish(err)
		}
		rep.Chunks = append(rep.Chunks, ChunkFetch{Index: idx, Combo: fetched, Bytes: bytes, Duration: dur})
		rep.TotalBytes += bytes
		frontier = starts[idx+1]
		if playStart.IsZero() {
			playStart = time.Now()
			rep.StartupDelay = playStart.Sub(begin)
		}
		// Pause fetching while the buffer exceeds the target.
		if excess := (frontier - playPos(time.Now())) - cfg.TargetBuffer; excess > 0 {
			select {
			case <-ctx.Done():
				return finish(ctx.Err())
			case <-time.After(excess):
			}
		}
	}
	return finish(nil)
}

// streamer carries one session's shared state. ABR models are
// intentionally unsynchronized (the simulator is single-threaded), so
// every observer call is serialized behind obs; mu guards the report
// counters and the blacklist.
type streamer struct {
	cfg    Config
	client *http.Client
	m      *Manifest
	pol    *faults.Policy // normalized; nil = fail fast
	begin  time.Time

	obs sync.Mutex
	mu  sync.Mutex
	bl  *faults.Blacklist
	rep *Report
}

func (s *streamer) retrySeed() int64 {
	if s.cfg.RetrySeed != 0 {
		return s.cfg.RetrySeed
	}
	return 1
}

// fetchPair downloads the audio and video chunk of one position
// concurrently. It returns the combination actually fetched, which may
// differ from the model's selection after a failover.
func (s *streamer) fetchPair(ctx context.Context, combo media.Combo, idx int) (int64, time.Duration, media.Combo, error) {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var total int64
	var firstErr error
	fetched := combo
	for _, tr := range []*media.Track{combo.Video, combo.Audio} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bytes, used, err := s.fetchTrack(ctx, tr, idx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			total += bytes
			if used != nil {
				if used.Type == media.Video {
					fetched.Video = used
				} else {
					fetched.Audio = used
				}
			}
		}()
	}
	wg.Wait()
	return total, time.Since(start), fetched, firstErr
}

// fetchTrack is the per-track load-error handler: fetch with a per-request
// timeout, retry with seeded backoff while the attempt budget lasts,
// blacklist repeat offenders, and fail over to the nearest healthy track.
// Without a policy the first error is final. The other media type's
// goroutine streams on regardless — one failing track never halts its
// sibling.
func (s *streamer) fetchTrack(ctx context.Context, tr *media.Track, idx int) (int64, *media.Track, error) {
	track := tr
	attempt := 0
	for {
		if s.pol != nil && s.blocked(track.ID) {
			if repl := s.failover(track); repl != nil && repl != track {
				s.count(func(r *Report) { r.Failovers++ })
				track = repl
				attempt = 0
			}
		}
		reqCtx := ctx
		cancel := func() {}
		if s.pol != nil && s.pol.RequestTimeout > 0 {
			reqCtx, cancel = context.WithTimeout(ctx, s.pol.RequestTimeout)
		}
		n, err := s.fetchOne(reqCtx, track, idx)
		cancel()
		if err == nil {
			if s.pol != nil {
				s.mu.Lock()
				s.bl.Clear(track.ID)
				s.mu.Unlock()
			}
			return n, track, nil
		}
		now := time.Since(s.begin)
		s.count(func(r *Report) {
			r.Faults = append(r.Faults, FaultRecord{
				Path: s.m.SegmentPath(track, idx), Type: track.Type, Index: idx,
				Attempt: attempt, At: now, Err: err.Error(),
			})
		})
		if ctx.Err() != nil || s.pol == nil {
			return n, track, err
		}
		s.mu.Lock()
		blocked := s.bl.Strike(track.ID, now, *s.pol)
		s.mu.Unlock()
		key := faults.Key(s.retrySeed(), track.ID, idx)
		if !blocked && attempt+1 < s.pol.MaxAttempts {
			s.count(func(r *Report) { r.Retries++ })
			if serr := sleepCtx(ctx, s.pol.Backoff(attempt, key)); serr != nil {
				return n, track, serr
			}
			attempt++
			continue
		}
		repl := s.failover(track)
		if repl == nil || repl == track {
			return n, track, fmt.Errorf("httpclient: no failover candidate left for %s chunk %d: %w", track.ID, idx, err)
		}
		s.count(func(r *Report) { r.Failovers++; r.Retries++ })
		if serr := sleepCtx(ctx, s.pol.Backoff(attempt, key)); serr != nil {
			return n, track, serr
		}
		track = repl
		attempt = 0
	}
}

// count runs a report mutation under the state lock.
func (s *streamer) count(fn func(*Report)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.rep)
}

func (s *streamer) blocked(trackID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bl.Blocked(trackID, time.Since(s.begin))
}

// failover picks the substitute for a failing track by the shared rule
// (faults.Blacklist.Failover); nil when every candidate is exiled.
func (s *streamer) failover(failed *media.Track) *media.Track {
	s.mu.Lock()
	defer s.mu.Unlock()
	ladder := s.m.Content.AudioTracks
	if failed.Type == media.Video {
		ladder = s.m.Content.VideoTracks
	}
	return s.bl.Failover(ladder, failed, time.Since(s.begin))
}

// sleepCtx waits d or until the context dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (s *streamer) fetchOne(ctx context.Context, tr *media.Track, idx int) (int64, error) {
	path := s.m.SegmentPath(tr, idx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.BaseURL+"/"+path, nil)
	if err != nil {
		return 0, err
	}
	// TransferInfo.At is session time, the clock abr.State.Now reads;
	// begin times this request's Duration.
	begin := time.Now()
	observe := func(fn func()) {
		s.obs.Lock()
		defer s.obs.Unlock()
		fn()
	}
	observe(func() { s.cfg.Model.OnStart(abr.TransferInfo{Type: tr.Type, At: begin.Sub(s.begin)}) })
	// closeOut balances the OnStart for every exit path so observers that
	// pair start/complete events stay consistent; failed requests report
	// the bytes that did arrive.
	closeOut := func(total int64) {
		now := time.Now()
		observe(func() {
			s.cfg.Model.OnComplete(abr.TransferInfo{
				Type:     tr.Type,
				Bytes:    float64(total),
				Duration: now.Sub(begin),
				At:       now.Sub(s.begin),
			})
		})
	}
	resp, err := s.client.Do(req)
	if err != nil {
		closeOut(0)
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		drainAndClose(resp.Body)
		closeOut(0)
		return 0, fmt.Errorf("httpclient: %s: %s", path, resp.Status)
	}
	var total int64
	buf := make([]byte, 32*1024)
	lastReport := time.Now()
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			total += int64(nr)
			now := time.Now()
			observe(func() {
				s.cfg.Model.OnProgress(abr.TransferInfo{
					Type:     tr.Type,
					Bytes:    float64(nr),
					Duration: now.Sub(lastReport),
					At:       now.Sub(s.begin),
				})
			})
			lastReport = now
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			closeOut(total)
			return total, rerr
		}
	}
	// A body shorter than the declared length is a truncated download,
	// not a success — Body.Read returns clean EOF in that case.
	if resp.ContentLength >= 0 && total < resp.ContentLength {
		closeOut(total)
		return total, fmt.Errorf("httpclient: %s: truncated body (%d of %d bytes)", path, total, resp.ContentLength)
	}
	closeOut(total)
	return total, nil
}
