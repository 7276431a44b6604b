// Httpdemo runs the full stack over real HTTP on localhost: it starts the
// origin server (with token-bucket shaping standing in for tc), fetches the
// DASH manifest and the HLS playlists like real clients do, and streams a
// short asset with two players — showing the §4.1 difference between a
// client that only reads the top-level HLS playlist and one that reads the
// media playlists first.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/httpclient"
	"demuxabr/internal/media"
	"demuxabr/internal/originserver"
)

func main() {
	// A 30-second asset with 1-second chunks streams quickly on localhost.
	content := media.MustNewContent(media.ContentSpec{
		Name:          "demo",
		Duration:      30 * time.Second,
		ChunkDuration: time.Second,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.DefaultChunkModel(),
	})

	// Shape the origin to 3 Mbps — a mid-ladder link.
	shaper := originserver.NewTokenBucket(media.Kbps(3000), 64*1024)
	srv := httptest.NewServer(originserver.New(content, originserver.Options{Shaper: shaper}).Handler())
	defer srv.Close()
	fmt.Println("origin at", srv.URL, "(shaped to 3 Mbps)")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Player 1: DASH — per-track bitrates come straight from the MPD.
	mpd, err := httpclient.FetchManifest(ctx, srv.Client(), srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	dashRep, err := httpclient.Stream(ctx, mpd, httpclient.Config{
		BaseURL:    srv.URL,
		Model:      exoplayer.NewDASH(mpd.Content.VideoTracks, mpd.Content.AudioTracks),
		HTTPClient: srv.Client(),
	})
	if err != nil {
		log.Fatal(err)
	}
	report("exoplayer-dash (MPD)", dashRep)

	// Player 2: HLS the §4.1 way — media playlists fetched up front, so
	// per-track bitrates are known and audio adapts.
	hls, err := httpclient.FetchHLS(ctx, srv.Client(), srv.URL)
	if err != nil {
		log.Fatal(err)
	}
	hlsRep, err := httpclient.Stream(ctx, hls, httpclient.Config{
		BaseURL:    srv.URL,
		Model:      exoplayer.NewHLSRepaired(hls.Variants),
		HTTPClient: srv.Client(),
	})
	if err != nil {
		log.Fatal(err)
	}
	report("exoplayer-hls-repaired (§4.1)", hlsRep)
}

func report(name string, rep *httpclient.Report) {
	first := rep.Chunks[0].Combo
	last := rep.Chunks[len(rep.Chunks)-1].Combo
	fmt.Printf("%-30s %2d chunks, %5.1f MB in %5.1fs, startup %4.0fms, rebuffered %4.0fms, %s -> %s\n",
		name, len(rep.Chunks), float64(rep.TotalBytes)/(1<<20), rep.Elapsed.Seconds(),
		float64(rep.StartupDelay.Milliseconds()), float64(rep.Rebuffered.Milliseconds()),
		first, last)
}
