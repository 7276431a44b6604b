package media

import (
	"testing"

	"demuxabr/internal/ledger"
)

// TestPresetContentCached pins the preset cache: every preset accessor
// must hand back the one shared immutable instance, not re-synthesize the
// chunk tables per call.
func TestPresetContentCached(t *testing.T) {
	if DramaShow() != DramaShow() {
		t.Error("DramaShow re-synthesizes per call")
	}
	if MusicShow() != MusicShow() {
		t.Error("MusicShow re-synthesizes per call")
	}
	if ActionMovie() != ActionMovie() {
		t.Error("ActionMovie re-synthesizes per call")
	}
	if MultiLanguageShow() != MultiLanguageShow() {
		t.Error("MultiLanguageShow re-synthesizes per call")
	}
	if DramaShowLowAudio() != DramaShowLowAudio() || DramaShowHighAudio() != DramaShowHighAudio() {
		t.Error("Fig. 2 drama variants re-synthesize per call")
	}
	pin := ledger.For(t).Bound("DramaShow", "allocs")
	allocs := testing.AllocsPerRun(100, func() { _ = DramaShow() })
	if allocs > pin {
		t.Errorf("DramaShow allocates %.2f objects per call after first, pinned at %.0f", allocs, pin)
	}
}

// TestComboCacheAllocs pins the H_all/H_sub caches: after the first call
// the only allocation left is the defensive copy handed to the caller.
func TestComboCacheAllocs(t *testing.T) {
	pins := ledger.For(t)
	allPin, subPin := pins.Bound("HAll", "allocs"), pins.Bound("HSub", "allocs")
	c := DramaShow()
	HAll(c)
	HSub(c)
	if allocs := testing.AllocsPerRun(100, func() { _ = HAll(c) }); allocs > allPin {
		t.Errorf("HAll allocates %.2f objects per call, pinned at %.0f (the copy): cross product or sort is back on the hot path", allocs, allPin)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = HSub(c) }); allocs > subPin {
		t.Errorf("HSub allocates %.2f objects per call, pinned at %.0f (the copy)", allocs, subPin)
	}
}

// TestComboCacheReturnsCopies: callers re-sort combination lists (HLS
// master ordering, ladder recovery), so the cache must never leak its
// backing array.
func TestComboCacheReturnsCopies(t *testing.T) {
	c := DramaShow()
	a := HAll(c)
	b := HAll(c)
	a[0], a[1] = a[1], a[0]
	if a[0] == b[0] {
		t.Fatal("HAll returned aliased slices: caller mutation corrupts the cache")
	}
	want := HAll(c)
	for i := range want {
		if want[i] != b[i] {
			t.Fatalf("cache content changed after caller mutation at index %d", i)
		}
	}
}

// TestChunkSizeAllocFree keeps the per-chunk size lookup off the allocator
// entirely, and TrackSizes aligned with it.
func TestChunkSizeAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("ChunkSize", "allocs")
	c := DramaShow()
	tr := c.VideoTracks[3]
	if allocs := testing.AllocsPerRun(100, func() { _ = c.ChunkSize(tr, 7) }); allocs > pin {
		t.Errorf("ChunkSize allocates %.2f objects per call, pinned at %.0f", allocs, pin)
	}
	sizes := c.TrackSizes(tr)
	if len(sizes) != c.NumChunks() {
		t.Fatalf("TrackSizes returned %d entries, want %d", len(sizes), c.NumChunks())
	}
	for i, s := range sizes {
		if got := c.ChunkSize(tr, i); got != s {
			t.Fatalf("TrackSizes[%d] = %d but ChunkSize = %d", i, s, got)
		}
	}
}
