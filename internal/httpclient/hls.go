package httpclient

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
)

// HLSManifest is the client's view of an HLS deployment built the §4.1 way:
// the master playlist provides the variant pairings and rendition order,
// and every second-level media playlist is downloaded up front so per-track
// bitrates are known before the first adaptation decision (the paper's
// "avoid lazy fetching" recommendation).
type HLSManifest struct {
	// Variants are the master playlist's combinations with recovered
	// per-track bitrates.
	Variants []media.Combo
	// AudioOrder is the rendition-list order (first = what a degraded
	// player would pin).
	AudioOrder []*media.Track
	// Duration and ChunkDuration come from the media playlists.
	Duration      time.Duration
	ChunkDuration time.Duration

	segURIs map[string][]string // track ID -> per-chunk URIs
	// segDurs is the video timeline's per-segment durations (EXTINF is
	// authoritative per segment; this client pairs A/V by index, so the
	// video timeline drives its playback clock).
	segDurs []time.Duration
}

// NumChunks implements Source. Media playlists can disagree on segment
// count (an encoder cut one track short); only positions every track can
// serve are playable, so the minimum across tracks governs.
func (m *HLSManifest) NumChunks() int {
	n := -1
	for _, uris := range m.segURIs {
		if n < 0 || len(uris) < n {
			n = len(uris)
		}
	}
	if n < 0 {
		return 0
	}
	return n
}

// Tracks implements Source: the distinct tracks of one type in manifest
// order (video from the variant list, audio from the rendition order).
func (m *HLSManifest) Tracks(t media.Type) []*media.Track {
	if t == media.Audio {
		return m.AudioOrder
	}
	var out []*media.Track
	seen := make(map[string]bool)
	for _, v := range m.Variants {
		if v.Video != nil && !seen[v.Video.ID] {
			seen[v.Video.ID] = true
			out = append(out, v.Video)
		}
	}
	return out
}

// ChunkDur implements Source.
func (m *HLSManifest) ChunkDur() time.Duration { return m.ChunkDuration }

// SegmentDurationAt implements Source: the EXTINF duration of segment idx.
func (m *HLSManifest) SegmentDurationAt(idx int) time.Duration {
	if idx < 0 || idx >= len(m.segDurs) {
		return m.ChunkDuration
	}
	return m.segDurs[idx]
}

// SegmentPath implements Source.
func (m *HLSManifest) SegmentPath(tr *media.Track, idx int) string {
	uris := m.segURIs[tr.ID]
	if idx < 0 || idx >= len(uris) {
		return ""
	}
	return uris[idx]
}

// FetchHLS downloads baseURL/master.m3u8 and every referenced media
// playlist, reconstructing tracks with true per-track bitrates from the
// playlists' byte ranges or EXT-X-BITRATE tags.
func FetchHLS(ctx context.Context, client *http.Client, baseURL string) (*HLSManifest, error) {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := get(ctx, client, baseURL+"/master.m3u8")
	if err != nil {
		return nil, err
	}
	master, err := hls.ParseMaster(body)
	body.Close()
	if err != nil {
		return nil, err
	}

	out := &HLSManifest{segURIs: make(map[string][]string)}
	tracks := make(map[string]*media.Track) // by media playlist URI

	// fetchTrack loads one media playlist and synthesizes the track.
	fetchTrack := func(uri, id string, typ media.Type) (*media.Track, error) {
		if tr, ok := tracks[uri]; ok {
			return tr, nil
		}
		body, err := get(ctx, client, baseURL+"/"+uri)
		if err != nil {
			return nil, err
		}
		pl, err := hls.ParseMedia(body)
		body.Close()
		if err != nil {
			return nil, fmt.Errorf("httpclient: %s: %w", uri, err)
		}
		peak, avg, err := hls.TrackBitrate(pl)
		if err != nil {
			return nil, fmt.Errorf("httpclient: %s: %w", uri, err)
		}
		tr := &media.Track{
			ID:              id,
			Type:            typ,
			AvgBitrate:      avg,
			PeakBitrate:     peak,
			DeclaredBitrate: peak,
		}
		tracks[uri] = tr
		var total time.Duration
		for _, seg := range pl.Segments {
			out.segURIs[tr.ID] = append(out.segURIs[tr.ID], seg.URI)
			total += seg.Duration
			if out.ChunkDuration == 0 || seg.Duration > out.ChunkDuration {
				out.ChunkDuration = seg.Duration
			}
		}
		if typ == media.Video && out.segDurs == nil {
			for _, seg := range pl.Segments {
				out.segDurs = append(out.segDurs, seg.Duration)
			}
		}
		if total > out.Duration {
			out.Duration = total
		}
		return tr, nil
	}

	audioByGroup := make(map[string]*media.Track)
	for _, r := range master.Renditions {
		if r.Type != "AUDIO" {
			continue
		}
		tr, err := fetchTrack(r.URI, r.Name, media.Audio)
		if err != nil {
			return nil, err
		}
		audioByGroup[r.GroupID] = tr
		out.AudioOrder = append(out.AudioOrder, tr)
	}
	for i, v := range master.Variants {
		videoID := videoIDFromURI(v.URI)
		video, err := fetchTrack(v.URI, videoID, media.Video)
		if err != nil {
			return nil, err
		}
		audio := audioByGroup[v.AudioGroup]
		if audio == nil {
			return nil, fmt.Errorf("httpclient: variant %d references unknown audio group %q", i, v.AudioGroup)
		}
		out.Variants = append(out.Variants, media.Combo{Video: video, Audio: audio})
	}
	if len(out.Variants) == 0 {
		return nil, fmt.Errorf("httpclient: master playlist lists no variants")
	}
	return out, nil
}

// videoIDFromURI recovers the track name from "video/V3.m3u8".
func videoIDFromURI(uri string) string {
	base := uri
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	return base
}

// get issues a GET and returns the body for a 200 response.
func get(ctx context.Context, client *http.Client, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		drainAndClose(resp.Body)
		return nil, fmt.Errorf("httpclient: %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

// FetchCombinations retrieves the server's out-of-band allowed-combination
// document (§4.1's short-term workaround for DASH) and resolves it against
// the manifest's ladders.
func FetchCombinations(ctx context.Context, client *http.Client, baseURL string, m *Manifest) ([]media.Combo, error) {
	if client == nil {
		client = http.DefaultClient
	}
	body, err := get(ctx, client, baseURL+"/combinations.json")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var entries []struct {
		Video string `json:"video"`
		Audio string `json:"audio"`
	}
	if err := json.NewDecoder(body).Decode(&entries); err != nil {
		return nil, fmt.Errorf("httpclient: combinations: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("httpclient: empty combination list")
	}
	combos := make([]media.Combo, len(entries))
	for i, e := range entries {
		video := m.Video.ByID(e.Video)
		audio := m.Audio.ByID(e.Audio)
		if video == nil || audio == nil {
			return nil, fmt.Errorf("httpclient: combination %s+%s not in the manifest", e.Video, e.Audio)
		}
		combos[i] = media.Combo{Video: video, Audio: audio}
	}
	return combos, nil
}
