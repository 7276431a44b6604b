package media

import (
	"testing"
	"time"
)

// nominal is the uniform-chunking arithmetic a content without explicit
// chunk durations is defined by: ChunkDuration-long chunks tiling Duration,
// the last one short when ChunkDuration does not divide Duration.
type nominal struct{ dur, chunk time.Duration }

func (m nominal) numChunks() int {
	n := int(m.dur / m.chunk)
	if m.dur%m.chunk != 0 {
		n++
	}
	return n
}

func (m nominal) chunkDuration(i int) time.Duration {
	n := m.numChunks()
	if i < 0 || i >= n {
		return 0
	}
	if i == n-1 {
		if rem := m.dur % m.chunk; rem != 0 {
			return rem
		}
	}
	return m.chunk
}

func (m nominal) chunkStart(i int) time.Duration {
	if i < 0 {
		return 0
	}
	if start := time.Duration(i) * m.chunk; start < m.dur {
		return start
	}
	return m.dur
}

func (m nominal) chunkIndexAt(pos time.Duration) int {
	n := m.numChunks()
	if pos <= 0 || n == 0 {
		return 0
	}
	idx := int(pos / m.chunk)
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// TestUniformTimelineMatchesNominalArithmetic pins every timeline lookup of
// content built without explicit chunk durations to the nominal arithmetic,
// for every preset and for durations that are a multiple of the chunk
// duration, not a multiple, and equal to it.
func TestUniformTimelineMatchesNominalArithmetic(t *testing.T) {
	synthetic := func(name string, dur, chunk time.Duration) *Content {
		return MustNewContent(ContentSpec{
			Name:          name,
			Duration:      dur,
			ChunkDuration: chunk,
			VideoTracks:   DramaVideoLadder(),
			AudioTracks:   DramaAudioLadder(),
			Model:         DefaultChunkModel(),
		})
	}
	contents := []*Content{
		DramaShow(), DramaShowLowAudio(), DramaShowHighAudio(),
		MusicShow(), ActionMovie(), MultiLanguageShow(),
		synthetic("multiple", 20*time.Second, 4*time.Second),
		synthetic("remainder", 17*time.Second, 5*time.Second),
		synthetic("remainder-ns", 10*time.Second+1, time.Second),
		synthetic("single", 3*time.Second, 3*time.Second),
	}
	for _, c := range contents {
		ref := nominal{c.Duration, c.ChunkDuration}
		n := ref.numChunks()
		for _, typ := range []Type{Video, Audio} {
			if got := c.NumChunksOf(typ); got != n {
				t.Fatalf("%s %s: NumChunksOf = %d, want %d", c.Name, typ, got, n)
			}
			for i := -1; i <= n+1; i++ {
				if got, want := c.ChunkDurationOf(typ, i), ref.chunkDuration(i); got != want {
					t.Errorf("%s %s: ChunkDurationOf(%d) = %v, want %v", c.Name, typ, i, got, want)
				}
				if got, want := c.ChunkStartOf(typ, i), ref.chunkStart(i); got != want {
					t.Errorf("%s %s: ChunkStartOf(%d) = %v, want %v", c.Name, typ, i, got, want)
				}
			}
			if tl := c.ChunkTimeline(typ); len(tl) != n+1 {
				t.Errorf("%s %s: ChunkTimeline has %d entries, want %d", c.Name, typ, len(tl), n+1)
			} else {
				for i, got := range tl {
					if want := ref.chunkStart(i); got != want {
						t.Errorf("%s %s: ChunkTimeline[%d] = %v, want %v", c.Name, typ, i, got, want)
					}
				}
			}
			positions := []time.Duration{0, -1, -c.ChunkDuration, c.Duration, c.Duration + 1, 2 * c.Duration}
			for i := 0; i <= n; i++ {
				b := ref.chunkStart(i)
				positions = append(positions, b-1, b, b+1)
			}
			for _, pos := range positions {
				if got, want := c.ChunkIndexAt(typ, pos), ref.chunkIndexAt(pos); got != want {
					t.Errorf("%s %s: ChunkIndexAt(%v) = %d, want %d", c.Name, typ, pos, got, want)
				}
			}
			if got := c.MaxChunkDurationOf(typ); got != c.ChunkDuration {
				t.Errorf("%s %s: MaxChunkDurationOf = %v, want %v", c.Name, typ, got, c.ChunkDuration)
			}
			if c.Irregular(typ) {
				t.Errorf("%s %s: Irregular = true for uniform content", c.Name, typ)
			}
		}
		if !c.Aligned() {
			t.Errorf("%s: Aligned = false for uniform content", c.Name)
		}
	}
}
