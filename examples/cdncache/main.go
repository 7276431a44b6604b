// Cdncache quantifies the paper's §1 motivation for demuxed tracks: origin
// storage (M+N track objects vs M×N muxed combinations) and CDN cache
// effectiveness when viewers share video variants but differ in audio
// (languages, quality tiers).
package main

import (
	"fmt"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/media"
)

func main() {
	content := media.DramaShow()

	// Storage: the §1 M+N vs M×N argument with the real Table 1 sizes.
	demuxed := cdnsim.OriginStorage(content, cdnsim.Demuxed, nil)
	muxed := cdnsim.OriginStorage(content, cdnsim.Muxed, media.HAll(content))
	fmt.Printf("origin storage for 6 video x 3 audio tracks of a 5-minute asset:\n")
	fmt.Printf("  demuxed (9 track objects):        %6.1f MB\n", float64(demuxed)/(1<<20))
	fmt.Printf("  muxed   (18 combination objects): %6.1f MB  (%.2fx)\n\n",
		float64(muxed)/(1<<20), float64(muxed)/float64(demuxed))

	// Cache hits: the §1 two-viewer scenario, then a population of viewers
	// spread across audio languages/tiers while concentrating on a few
	// video rungs.
	v := content.VideoTracks
	a := content.AudioTracks
	var sessions []cdnsim.Session
	for _, combo := range []media.Combo{
		{Video: v[2], Audio: a[0]}, {Video: v[2], Audio: a[1]}, {Video: v[2], Audio: a[2]},
		{Video: v[3], Audio: a[0]}, {Video: v[3], Audio: a[1]}, {Video: v[3], Audio: a[2]},
		{Video: v[2], Audio: a[0]}, {Video: v[3], Audio: a[1]},
	} {
		sessions = append(sessions, cdnsim.Session{Combo: combo})
	}
	const cacheBytes = 1 << 30
	d := cdnsim.Workload(cdnsim.NewCache(cacheBytes), cdnsim.Demuxed, content, sessions)
	m := cdnsim.Workload(cdnsim.NewCache(cacheBytes), cdnsim.Muxed, content, sessions)
	fmt.Printf("8 viewers, 2 video rungs x 3 audio variants:\n")
	fmt.Printf("  demuxed: hit ratio %.2f, byte hit ratio %.2f, origin traffic %6.1f MB\n",
		d.HitRatio(), d.ByteHitRatio(), float64(d.BytesOrigin)/(1<<20))
	fmt.Printf("  muxed:   hit ratio %.2f, byte hit ratio %.2f, origin traffic %6.1f MB\n",
		m.HitRatio(), m.ByteHitRatio(), float64(m.BytesOrigin)/(1<<20))
	fmt.Println("\nDemuxed packaging lets viewers who differ only in audio share every")
	fmt.Println("cached video chunk — the cache-hit advantage the paper's §1 describes.")

	// Cache-size sweep with a Zipf-skewed audience (popularity concentrated
	// on mid-ladder rungs, viewers spread across 3 audio variants).
	pop := cdnsim.Population{Viewers: 60, VideoZipf: 1.2, AudioSpread: 3, Seed: 11}
	fmt.Println("\nbyte hit ratio vs cache size (60 Zipf viewers, 3 audio variants):")
	fmt.Println("  cache      demuxed  muxed")
	for _, p := range cdnsim.CacheSweep(content, pop, []int64{32 << 20, 128 << 20, 512 << 20, 2 << 30}, 0) {
		if p.Mode == cdnsim.Demuxed {
			fmt.Printf("  %5d MB   %6.3f", p.CacheBytes>>20, p.Stats.ByteHitRatio())
		} else {
			fmt.Printf("   %6.3f\n", p.Stats.ByteHitRatio())
		}
	}
}
