package httpclient

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
)

// FetchHLS downloads baseURL/master.m3u8 and every referenced media
// playlist the §4.1 way: the master playlist provides the variant
// pairings, and every second-level media playlist is downloaded up front
// so per-track bitrates — recovered from the playlists' byte ranges or
// EXT-X-BITRATE tags — are known before the first adaptation decision (the
// paper's "avoid lazy fetching" recommendation).
func FetchHLS(ctx context.Context, client *http.Client, baseURL string) (*Manifest, error) {
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

	var ladders [2]media.Ladder
	// segs holds each type's EXTINF durations from its first media
	// playlist; EXTINF is authoritative per segment.
	var segs [2][]time.Duration
	segURIs := make(map[string][]string)
	fewest := -1                            // segment count of the shortest media playlist
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
		first := len(ladders[typ]) == 0
		tracks[uri] = tr
		ladders[typ] = append(ladders[typ], tr)
		uris := make([]string, len(pl.Segments))
		for i, seg := range pl.Segments {
			uris[i] = seg.URI
			if first {
				segs[typ] = append(segs[typ], seg.Duration)
			}
		}
		segURIs[id] = uris
		if fewest < 0 || len(uris) < fewest {
			fewest = len(uris)
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
	}
	var variants []media.Combo
	for i, v := range master.Variants {
		video, err := fetchTrack(v.URI, videoIDFromURI(v.URI), media.Video)
		if err != nil {
			return nil, err
		}
		audio := audioByGroup[v.AudioGroup]
		if audio == nil {
			return nil, fmt.Errorf("httpclient: variant %d references unknown audio group %q", i, v.AudioGroup)
		}
		variants = append(variants, media.Combo{Video: video, Audio: audio})
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("httpclient: master playlist lists no variants")
	}
	// Media playlists can disagree on segment count (an encoder cut one
	// track short); only positions every track can serve are playable, so
	// the shortest playlist sets both timelines' length.
	for typ := range segs {
		segs[typ] = segs[typ][:fewest]
		slices.SortStableFunc(ladders[typ], func(a, b *media.Track) int {
			return cmp.Compare(a.DeclaredBitrate, b.DeclaredBitrate)
		})
	}
	return newManifest(ladders[media.Video], ladders[media.Audio], segs, segURIs, variants)
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
		video := m.Content.VideoTracks.ByID(e.Video)
		audio := m.Content.AudioTracks.ByID(e.Audio)
		if video == nil || audio == nil {
			return nil, fmt.Errorf("httpclient: combination %s+%s not in the manifest", e.Video, e.Audio)
		}
		combos[i] = media.Combo{Video: video, Audio: audio}
	}
	return combos, nil
}
