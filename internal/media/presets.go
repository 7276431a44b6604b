package media

import (
	"fmt"
	"sync"
	"time"
)

// This file defines the exact content of the paper's experiments: the
// YouTube drama show of Table 1, and the two alternative audio ladders (B
// and C) used in the ExoPlayer DASH experiments of Fig. 2.

// DramaVideoLadder returns the six video tracks of Table 1.
func DramaVideoLadder() Ladder {
	return Ladder{
		{ID: "V1", Type: Video, AvgBitrate: Kbps(111), PeakBitrate: Kbps(119), DeclaredBitrate: Kbps(111), Resolution: "144p"},
		{ID: "V2", Type: Video, AvgBitrate: Kbps(246), PeakBitrate: Kbps(261), DeclaredBitrate: Kbps(246), Resolution: "240p"},
		{ID: "V3", Type: Video, AvgBitrate: Kbps(362), PeakBitrate: Kbps(641), DeclaredBitrate: Kbps(473), Resolution: "360p"},
		{ID: "V4", Type: Video, AvgBitrate: Kbps(734), PeakBitrate: Kbps(1190), DeclaredBitrate: Kbps(914), Resolution: "480p"},
		{ID: "V5", Type: Video, AvgBitrate: Kbps(1421), PeakBitrate: Kbps(2382), DeclaredBitrate: Kbps(1852), Resolution: "720p"},
		{ID: "V6", Type: Video, AvgBitrate: Kbps(2728), PeakBitrate: Kbps(4447), DeclaredBitrate: Kbps(3746), Resolution: "1080p"},
	}
}

// DramaAudioLadder returns the three audio tracks of Table 1 (ladder "A").
func DramaAudioLadder() Ladder {
	return Ladder{
		{ID: "A1", Type: Audio, AvgBitrate: Kbps(128), PeakBitrate: Kbps(134), DeclaredBitrate: Kbps(128), Channels: 2, SampleRateHz: 44000},
		{ID: "A2", Type: Audio, AvgBitrate: Kbps(196), PeakBitrate: Kbps(199), DeclaredBitrate: Kbps(196), Channels: 6, SampleRateHz: 48000},
		{ID: "A3", Type: Audio, AvgBitrate: Kbps(384), PeakBitrate: Kbps(391), DeclaredBitrate: Kbps(384), Channels: 6, SampleRateHz: 48000},
	}
}

// LowAudioLadder returns the low-bitrate audio adaptation set of the first
// Fig. 2 experiment (tracks B1/B2/B3, declared 32/64/128 Kbps).
func LowAudioLadder() Ladder {
	return Ladder{
		{ID: "B1", Type: Audio, AvgBitrate: Kbps(31), PeakBitrate: Kbps(33), DeclaredBitrate: Kbps(32), Channels: 2, SampleRateHz: 44000},
		{ID: "B2", Type: Audio, AvgBitrate: Kbps(62), PeakBitrate: Kbps(66), DeclaredBitrate: Kbps(64), Channels: 2, SampleRateHz: 44000},
		{ID: "B3", Type: Audio, AvgBitrate: Kbps(125), PeakBitrate: Kbps(131), DeclaredBitrate: Kbps(128), Channels: 2, SampleRateHz: 44000},
	}
}

// HighAudioLadder returns the high-bitrate audio adaptation set of the second
// Fig. 2 experiment (tracks C1/C2/C3, declared 196/384/768 Kbps).
func HighAudioLadder() Ladder {
	return Ladder{
		{ID: "C1", Type: Audio, AvgBitrate: Kbps(192), PeakBitrate: Kbps(199), DeclaredBitrate: Kbps(196), Channels: 2, SampleRateHz: 48000},
		{ID: "C2", Type: Audio, AvgBitrate: Kbps(376), PeakBitrate: Kbps(391), DeclaredBitrate: Kbps(384), Channels: 6, SampleRateHz: 48000},
		{ID: "C3", Type: Audio, AvgBitrate: Kbps(752), PeakBitrate: Kbps(781), DeclaredBitrate: Kbps(768), Channels: 6, SampleRateHz: 48000},
	}
}

// DramaDuration is the playback duration of the paper's test asset
// ("around 5 minutes long").
const DramaDuration = 5 * time.Minute

// DramaChunkDuration is the chunk duration used when synthesizing the asset.
// The paper does not state it; 5 s is the common YouTube/DASH segmentation.
const DramaChunkDuration = 5 * time.Second

// Preset content is immutable once synthesized (Content has no mutating
// methods; the chunk-size tables are read-only after NewContent), so each
// preset is built once and shared — including across runpool fleet
// sessions. Synthesizing the VBR chunk tables costs ~60 chunks × ~10
// tracks of seeded draws per call, which used to run once per session.
var (
	dramaShow          = sync.OnceValue(newDramaShow)
	dramaShowLowAudio  = sync.OnceValue(newDramaShowLowAudio)
	dramaShowHighAudio = sync.OnceValue(newDramaShowHighAudio)
	musicShow          = sync.OnceValue(newMusicShow)
	actionMovie        = sync.OnceValue(newActionMovie)
	multiLanguageShow  = sync.OnceValue(newMultiLanguageShow)
)

// DramaShow synthesizes the Table 1 content (A audio ladder).
func DramaShow() *Content { return dramaShow() }

func newDramaShow() *Content {
	return MustNewContent(ContentSpec{
		Name:          "drama-show",
		Duration:      DramaDuration,
		ChunkDuration: DramaChunkDuration,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   DramaAudioLadder(),
		Model:         DefaultChunkModel(),
	})
}

// DramaShowLowAudio is the Fig. 2(a) variant: Table 1 video + B audio ladder.
func DramaShowLowAudio() *Content { return dramaShowLowAudio() }

func newDramaShowLowAudio() *Content {
	return MustNewContent(ContentSpec{
		Name:          "drama-show-low-audio",
		Duration:      DramaDuration,
		ChunkDuration: DramaChunkDuration,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   LowAudioLadder(),
		Model:         DefaultChunkModel(),
	})
}

// DramaShowHighAudio is the Fig. 2(b) variant: Table 1 video + C audio ladder.
func DramaShowHighAudio() *Content { return dramaShowHighAudio() }

func newDramaShowHighAudio() *Content {
	return MustNewContent(ContentSpec{
		Name:          "drama-show-high-audio",
		Duration:      DramaDuration,
		ChunkDuration: DramaChunkDuration,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   HighAudioLadder(),
		Model:         DefaultChunkModel(),
	})
}

// Named returns the preset content the commands' -content flag names.
func Named(name string) (*Content, error) {
	switch name {
	case "drama":
		return DramaShow(), nil
	case "drama-low-audio":
		return DramaShowLowAudio(), nil
	case "drama-high-audio":
		return DramaShowHighAudio(), nil
	case "music-show":
		return MusicShow(), nil
	case "action-movie":
		return ActionMovie(), nil
	default:
		return nil, fmt.Errorf("unknown content %q (have %v)", name, Names())
	}
}

// Names lists the preset content names Named accepts.
func Names() []string {
	return []string{"drama", "drama-low-audio", "drama-high-audio", "music-show", "action-movie"}
}

// HSub returns the curated subset of 6 combinations of manifest H_sub
// (Table 3): V1+A1, V2+A1, V3+A2, V4+A2, V5+A3, V6+A3. The expansion is
// cached per content; the returned slice is a fresh copy the caller may
// reorder.
func HSub(c *Content) []Combo {
	c.hsubOnce.Do(func() { c.hsub = PairCombos(c.VideoTracks, c.AudioTracks) })
	out := make([]Combo, len(c.hsub))
	copy(out, c.hsub)
	return out
}

// HAll returns the full set of 18 combinations of manifest H_all (Table 2),
// sorted by increasing peak bitrate. The cross product and sort are cached
// per content; the returned slice is a fresh copy the caller may reorder.
func HAll(c *Content) []Combo {
	c.hallOnce.Do(func() { c.hall = AllCombos(c.VideoTracks, c.AudioTracks) })
	out := make([]Combo, len(c.hall))
	copy(out, c.hall)
	return out
}

// MusicShowAudioLadder returns an audio ladder for content where sound
// dominates: stereo AAC up to a Dolby-Atmos-class 768 Kbps top rung (the
// §1 observation that modern audio tracks can rival mid-ladder video).
func MusicShowAudioLadder() Ladder {
	return Ladder{
		{ID: "A1", Type: Audio, AvgBitrate: Kbps(128), PeakBitrate: Kbps(134), DeclaredBitrate: Kbps(128), Channels: 2, SampleRateHz: 44000},
		{ID: "A2", Type: Audio, AvgBitrate: Kbps(256), PeakBitrate: Kbps(262), DeclaredBitrate: Kbps(256), Channels: 2, SampleRateHz: 48000},
		{ID: "A3", Type: Audio, AvgBitrate: Kbps(384), PeakBitrate: Kbps(391), DeclaredBitrate: Kbps(384), Channels: 6, SampleRateHz: 48000},
		{ID: "A4", Type: Audio, AvgBitrate: Kbps(752), PeakBitrate: Kbps(768), DeclaredBitrate: Kbps(768), Channels: 8, SampleRateHz: 48000},
	}
}

// MusicShow synthesizes a concert asset: the Table 1 video ladder with the
// four-rung high-fidelity audio ladder.
func MusicShow() *Content { return musicShow() }

func newMusicShow() *Content {
	return MustNewContent(ContentSpec{
		Name:          "music-show",
		Duration:      DramaDuration,
		ChunkDuration: DramaChunkDuration,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   MusicShowAudioLadder(),
		Model:         ChunkModel{Seed: 2, Spread: 0.15, PeakEvery: 12}, // steady stage shots
	})
}

// ActionMovie synthesizes a high-motion asset: the Table 1 ladders with a
// far spikier video chunk-size distribution (scene cuts and action peaks),
// stressing VBR-aware players.
func ActionMovie() *Content { return actionMovie() }

func newActionMovie() *Content {
	return MustNewContent(ContentSpec{
		Name:          "action-movie",
		Duration:      DramaDuration,
		ChunkDuration: DramaChunkDuration,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   DramaAudioLadder(),
		Model:         ChunkModel{Seed: 3, Spread: 0.45, PeakEvery: 4},
	})
}

// MultiLanguageAudio returns a two-language audio set — the other §1
// motivation for demuxed tracks: each language carries its own quality
// tiers (here 128 and 384 Kbps), and the video ladder is shared.
func MultiLanguageAudio() Ladder {
	return Ladder{
		{ID: "EN1", Type: Audio, Language: "en", AvgBitrate: Kbps(128), PeakBitrate: Kbps(134), DeclaredBitrate: Kbps(128), Channels: 2, SampleRateHz: 48000},
		{ID: "ES1", Type: Audio, Language: "es", AvgBitrate: Kbps(128), PeakBitrate: Kbps(134), DeclaredBitrate: Kbps(128), Channels: 2, SampleRateHz: 48000},
		{ID: "EN2", Type: Audio, Language: "en", AvgBitrate: Kbps(384), PeakBitrate: Kbps(391), DeclaredBitrate: Kbps(384), Channels: 6, SampleRateHz: 48000},
		{ID: "ES2", Type: Audio, Language: "es", AvgBitrate: Kbps(384), PeakBitrate: Kbps(391), DeclaredBitrate: Kbps(384), Channels: 6, SampleRateHz: 48000},
	}
}

// MultiLanguageShow synthesizes the drama video ladder with the
// two-language audio set.
func MultiLanguageShow() *Content { return multiLanguageShow() }

func newMultiLanguageShow() *Content {
	return MustNewContent(ContentSpec{
		Name:          "multi-language-show",
		Duration:      DramaDuration,
		ChunkDuration: DramaChunkDuration,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   MultiLanguageAudio(),
		Model:         DefaultChunkModel(),
	})
}

// LanguageLadder filters an audio ladder to one language (tracks with an
// empty Language always match).
func LanguageLadder(audio Ladder, lang string) Ladder {
	var out Ladder
	for _, t := range audio {
		if t.Language == "" || t.Language == lang {
			out = append(out, t)
		}
	}
	return out
}

// CombosForLanguage filters a combination list to one audio language.
func CombosForLanguage(combos []Combo, lang string) []Combo {
	var out []Combo
	for _, cb := range combos {
		if cb.Audio.Language == "" || cb.Audio.Language == lang {
			out = append(out, cb)
		}
	}
	return out
}
