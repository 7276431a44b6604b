package cdnsim

import (
	"testing"

	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
)

// TestPlannedWorkloadMatchesRequestChunk: the precomputed request plans
// must replay exactly the same key/size sequence as the per-request
// RequestChunk path, in both packaging modes.
func TestPlannedWorkloadMatchesRequestChunk(t *testing.T) {
	content := media.DramaShow()
	sessions := []Session{
		{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[1]}},
		{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[0]}},
		{Combo: media.Combo{Video: content.VideoTracks[3], Audio: content.AudioTracks[1]}},
	}
	for _, mode := range []Mode{Demuxed, Muxed} {
		const capBytes = 64 << 20
		planned := Workload(NewCache(capBytes), mode, content, sessions)
		reference := NewCache(capBytes)
		n := content.NumChunks()
		for idx := 0; idx < n; idx++ {
			for _, s := range sessions {
				RequestChunk(reference, mode, content, s.Combo, idx)
			}
		}
		if planned != reference.Stats() {
			t.Errorf("%s: planned workload stats %+v != per-request stats %+v", mode, planned, reference.Stats())
		}
	}
}

// TestWorkloadSteadyStateAllocs bounds the cache sweep's hot path: with
// the plans built, replaying a chunk position for every session must not
// allocate on cache hits. Before the key tables every request Sprintf'd
// its keys (~3 allocations per request).
func TestWorkloadSteadyStateAllocs(t *testing.T) {
	pins := ledger.For(t)
	content := media.DramaShow()
	sessions := []Session{
		{Combo: media.Combo{Video: content.VideoTracks[0], Audio: content.AudioTracks[1]}},
		{Combo: media.Combo{Video: content.VideoTracks[2], Audio: content.AudioTracks[0]}},
	}
	for _, mode := range []Mode{Demuxed, Muxed} {
		pin := pins.Bound(mode.String(), "allocs")
		cache := NewCache(1 << 30)
		plans := planSessions(mode, content, sessions)
		// Warm: first pass misses and inserts; afterwards every request hits.
		for _, p := range plans {
			p.request(cache, 0)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, p := range plans {
				p.request(cache, 0)
			}
		})
		if allocs > pin {
			t.Errorf("%s: hit path allocates %.2f objects per position, pinned at %.0f (request plan regressed)", mode, allocs, pin)
		}
	}
}

// TestMissEvictSteadyStateAllocs pins the edge's miss path: once the
// cache has filled, a request that misses and evicts allocates nothing.
// Before the intrusive list every miss boxed an entry and allocated a list
// element.
func TestMissEvictSteadyStateAllocs(t *testing.T) {
	pin := ledger.For(t).Bound("warm miss", "allocs")
	content := media.DramaShow()
	st := trackStream(content, content.VideoTracks[len(content.VideoTracks)-1])
	// A few chunks' room: every request of the cyclic stream misses and
	// evicts the least recent chunk.
	cache := NewCache(4 * st.sizes[0])
	idx := 0
	request := func() {
		if cache.Request(Object{Key: st.keys[idx], Size: st.sizes[idx]}) {
			t.Fatalf("chunk %d hit; the stream must miss on every request", idx)
		}
		idx = (idx + 1) % len(st.keys)
	}
	for range st.keys {
		request() // fill the slots, the free chain and the index
	}
	before := cache.Stats()
	allocs := testing.AllocsPerRun(1000, request)
	if ev := cache.Stats().Evictions - before.Evictions; ev < 1000 {
		t.Fatalf("%d evictions over 1001 misses: the stream no longer evicts", ev)
	}
	if allocs > pin {
		t.Errorf("a warm miss that evicts allocates %.2f objects, pinned at %.0f", allocs, pin)
	}
}

// TestCacheSweepParallelMatchesSerial: the fan-out must reproduce the
// serial sweep cell-for-cell.
func TestCacheSweepParallelMatchesSerial(t *testing.T) {
	content := media.DramaShow()
	pop := Population{Viewers: 24, VideoZipf: 1.2, AudioSpread: 3, Seed: 11}
	sizes := []int64{16 << 20, 64 << 20}
	serial := CacheSweep(content, pop, sizes, 1)
	parallel := CacheSweep(content, pop, sizes, 0)
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d points, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}
