package cdnsim

import (
	"slices"
	"sync"
	"testing"

	"demuxabr/internal/media"
)

func TestEdgePerSessionAccountingSumsToAggregate(t *testing.T) {
	content := media.DramaShow()
	v1 := content.VideoTracks[0]
	a1, a2 := content.AudioTracks[0], content.AudioTracks[1]
	e := NewEdge(NewCache(1<<30), Demuxed, content, 2)
	n := content.NumChunks()
	for idx := 0; idx < n; idx++ {
		e.RequestTrack(0, v1, idx)
		e.RequestTrack(0, a2, idx)
		e.RequestTrack(1, v1, idx)
		e.RequestTrack(1, a1, idx)
	}
	agg := e.Aggregate()
	var sum Stats
	for i := 0; i < e.Sessions(); i++ {
		s := e.SessionStats(i)
		sum.Requests += s.Requests
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.BytesServed += s.BytesServed
		sum.BytesOrigin += s.BytesOrigin
	}
	if sum.Requests != agg.Requests || sum.Hits != agg.Hits || sum.Misses != agg.Misses {
		t.Fatalf("per-session sums %+v disagree with aggregate %+v", sum, agg)
	}
	if sum.BytesServed != agg.BytesServed || sum.BytesOrigin != agg.BytesOrigin {
		t.Fatalf("per-session byte sums %+v disagree with aggregate %+v", sum, agg)
	}
}

func TestEdgeCrossSessionHitAttribution(t *testing.T) {
	// Session 0 pulls V1 through the cache; session 1, same video but a
	// different audio language, must hit on every V1 chunk — and the hits
	// must be attributed to session 1.
	content := media.DramaShow()
	v1 := content.VideoTracks[0]
	a1, a2 := content.AudioTracks[0], content.AudioTracks[1]
	e := NewEdge(NewCache(1<<30), Demuxed, content, 2)
	n := content.NumChunks()
	for idx := 0; idx < n; idx++ {
		e.RequestTrack(0, v1, idx)
		e.RequestTrack(0, a2, idx)
	}
	for idx := 0; idx < n; idx++ {
		e.RequestTrack(1, v1, idx)
		e.RequestTrack(1, a1, idx)
	}
	if got := e.SessionStats(0).Hits; got != 0 {
		t.Errorf("first session hits = %d, want 0", got)
	}
	if got, want := e.SessionStats(1).Hits, int64(n); got != want {
		t.Errorf("second session hits = %d, want %d (every V1 chunk)", got, want)
	}
}

func TestEdgeMuxedNoCrossSessionSharing(t *testing.T) {
	// The same pair of viewers in muxed mode: distinct combination objects,
	// zero sharing — the §1 contrast at the edge API level.
	content := media.DramaShow()
	v1 := content.VideoTracks[0]
	a1, a2 := content.AudioTracks[0], content.AudioTracks[1]
	e := NewEdge(NewCache(1<<30), Muxed, content, 2)
	n := content.NumChunks()
	for idx := 0; idx < n; idx++ {
		e.RequestMuxed(0, v1, a2, idx)
		e.RequestMuxed(1, v1, a1, idx)
	}
	if got := e.Aggregate().Hits; got != 0 {
		t.Errorf("muxed aggregate hits = %d, want 0 (all distinct objects)", got)
	}
	// Re-requests of the same combination do hit.
	if !e.RequestMuxed(0, v1, a2, 0) {
		t.Error("repeat muxed request should hit the cache")
	}
}

func TestEdgeKeysMatchWorkload(t *testing.T) {
	// Edge and Workload must agree on object identity: replaying the same
	// viewers through both yields identical aggregate stats.
	content := media.DramaShow()
	v1 := content.VideoTracks[0]
	a1, a2 := content.AudioTracks[0], content.AudioTracks[1]
	sessions := []Session{
		{Combo: media.Combo{Video: v1, Audio: a2}},
		{Combo: media.Combo{Video: v1, Audio: a1}},
	}
	for _, mode := range []Mode{Demuxed, Muxed} {
		w := Workload(NewCache(1<<30), mode, content, sessions)
		e := NewEdge(NewCache(1<<30), mode, content, len(sessions))
		n := content.NumChunks()
		for idx := 0; idx < n; idx++ {
			for si, s := range sessions {
				if mode == Muxed {
					e.RequestMuxed(si, s.Combo.Video, s.Combo.Audio, idx)
				} else {
					e.RequestTrack(si, s.Combo.Video, idx)
					e.RequestTrack(si, s.Combo.Audio, idx)
				}
			}
		}
		if got := e.Aggregate(); got != w {
			t.Errorf("%v: edge aggregate %+v != workload %+v", mode, got, w)
		}
	}
}

// TestObjectStreamMemoShared drives edges on one content from several
// goroutines at once, as concurrent fleet shards do, and requires every
// request to see the keys and sizes a fresh build gives and every edge to
// share one table per track and per combination.
func TestObjectStreamMemoShared(t *testing.T) {
	content := media.DramaShow()
	combos := media.HSub(content)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen []string
			edge := NewEdge(NewCache(1<<20), Demuxed, content, 1)
			edge.Observer = func(_ int, key string, _ int64, _ bool) { seen = append(seen, key) }
			muxed := NewEdge(NewCache(1<<20), Muxed, content, 1)
			for i := range combos {
				cb := combos[(i+g)%len(combos)]
				for idx := range content.NumChunks() {
					edge.RequestTrack(0, cb.Video, idx)
					edge.RequestTrack(0, cb.Audio, idx)
					muxed.RequestMuxed(0, cb.Video, cb.Audio, idx)
				}
			}
			for i := range combos {
				cb := combos[(i+g)%len(combos)]
				for idx := range content.NumChunks() {
					k := (i*content.NumChunks() + idx) * 2
					if seen[k] != trackKey(cb.Video, idx) || seen[k+1] != trackKey(cb.Audio, idx) {
						t.Errorf("goroutine %d: keys %q, %q at %s/%s chunk %d", g, seen[k], seen[k+1], cb.Video.ID, cb.Audio.ID, idx)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, cb := range combos {
		st := trackStream(content, cb.Video)
		if st != trackStream(content, cb.Video) || !slices.Equal(st.sizes, content.TrackSizes(cb.Video)) {
			t.Errorf("%s: track stream not shared or sizes differ", cb.Video.ID)
		}
		mx := muxedStream(content, cb.Video, cb.Audio)
		for idx := range content.NumChunks() {
			want := content.ChunkSize(cb.Video, idx) + content.ChunkSize(cb.Audio, idx)
			if mx.keys[idx] != muxedKey(cb.Video, cb.Audio, idx) || mx.sizes[idx] != want {
				t.Fatalf("%s+%s chunk %d: muxed %q %d, want %q %d", cb.Video.ID, cb.Audio.ID, idx,
					mx.keys[idx], mx.sizes[idx], muxedKey(cb.Video, cb.Audio, idx), want)
			}
		}
	}
}
