package cdnsim

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"demuxabr/internal/media"
)

func TestLRUBasics(t *testing.T) {
	c := NewCache(100)
	if hit := c.Request(Object{Key: "a", Size: 40}); hit {
		t.Error("first request must miss")
	}
	if hit := c.Request(Object{Key: "a", Size: 40}); !hit {
		t.Error("second request must hit")
	}
	c.Request(Object{Key: "b", Size: 40})
	c.Request(Object{Key: "c", Size: 40}) // evicts "a" (LRU after refresh? no: a was refreshed, b is LRU)
	if c.Used() > 100 {
		t.Errorf("used %d exceeds capacity", c.Used())
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected an eviction")
	}
}

func TestLRURecency(t *testing.T) {
	c := NewCache(100)
	c.Request(Object{Key: "a", Size: 50})
	c.Request(Object{Key: "b", Size: 50})
	c.Request(Object{Key: "a", Size: 50}) // refresh a; b becomes LRU
	c.Request(Object{Key: "c", Size: 50}) // evicts b
	if !c.Request(Object{Key: "a", Size: 50}) {
		t.Error("a should still be cached")
	}
	if c.Request(Object{Key: "b", Size: 50}) {
		t.Error("b should have been evicted")
	}
}

func TestOversizedObjectUncached(t *testing.T) {
	c := NewCache(100)
	c.Request(Object{Key: "big", Size: 500})
	if c.Used() != 0 {
		t.Errorf("oversized object cached: used=%d", c.Used())
	}
	if c.Request(Object{Key: "big", Size: 500}) {
		t.Error("oversized object must never hit")
	}
}

func TestCapacityInvariantProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		c := NewCache(1000)
		for _, k := range keys {
			c.Request(Object{Key: fmt.Sprintf("k%d", k%32), Size: int64(k%200) + 1})
			if c.Used() > 1000 {
				return false
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Requests
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOriginStorageMuxedVsDemuxed(t *testing.T) {
	// §1: M+N tracks demuxed vs M×N combinations muxed.
	c := media.DramaShow()
	demuxed := OriginStorage(c, Demuxed, nil)
	muxed := OriginStorage(c, Muxed, media.HAll(c))
	if muxed <= demuxed {
		t.Fatalf("muxed storage %d should exceed demuxed %d", muxed, demuxed)
	}
	// Exact relationship: muxed H_all stores each video 3x (N audio
	// variants) and each audio 6x (M video variants).
	var videoBytes, audioBytes int64
	for _, tr := range c.VideoTracks {
		videoBytes += c.TrackBytes(tr)
	}
	for _, tr := range c.AudioTracks {
		audioBytes += c.TrackBytes(tr)
	}
	wantMuxed := 3*videoBytes + 6*audioBytes
	if muxed != wantMuxed {
		t.Errorf("muxed storage = %d, want %d", muxed, wantMuxed)
	}
	if demuxed != videoBytes+audioBytes {
		t.Errorf("demuxed storage = %d, want %d", demuxed, videoBytes+audioBytes)
	}
}

func TestCacheHitAdvantageOfDemuxed(t *testing.T) {
	// The §1 scenario: user A watches V1+A2, user B later watches V1+A1.
	// Demuxed: B hits the cache for every V1 chunk. Muxed: B misses all.
	content := media.DramaShow()
	v1 := content.VideoTracks[0]
	a1, a2 := content.AudioTracks[0], content.AudioTracks[1]
	sessions := []Session{
		{Combo: media.Combo{Video: v1, Audio: a2}},
		{Combo: media.Combo{Video: v1, Audio: a1}},
	}
	const cap = 1 << 30 // ample: isolate the sharing effect
	demuxed := Workload(NewCache(cap), Demuxed, content, sessions)
	muxed := Workload(NewCache(cap), Muxed, content, sessions)
	if demuxed.HitRatio() <= muxed.HitRatio() {
		t.Errorf("demuxed hit ratio %.2f <= muxed %.2f", demuxed.HitRatio(), muxed.HitRatio())
	}
	if muxed.Hits != 0 {
		t.Errorf("muxed hits = %d, want 0 (all distinct objects)", muxed.Hits)
	}
	// Demuxed: per chunk, 4 requests (2 users x 2 tracks), 1 hit (B's V1).
	wantHits := int64(content.NumChunks())
	if demuxed.Hits != wantHits {
		t.Errorf("demuxed hits = %d, want %d", demuxed.Hits, wantHits)
	}
	// Demuxed also moves fewer origin bytes.
	if demuxed.BytesOrigin >= muxed.BytesOrigin {
		t.Errorf("demuxed origin bytes %d >= muxed %d", demuxed.BytesOrigin, muxed.BytesOrigin)
	}
}

func TestWorkloadManyViewers(t *testing.T) {
	// Many viewers across all H_sub combos: demuxed keeps a strictly
	// higher byte hit ratio.
	content := media.DramaShow()
	var sessions []Session
	for i, cb := range media.HSub(content) {
		for j := 0; j <= i%3; j++ {
			sessions = append(sessions, Session{Combo: cb})
		}
	}
	const cap = 1 << 30
	demuxed := Workload(NewCache(cap), Demuxed, content, sessions)
	muxed := Workload(NewCache(cap), Muxed, content, sessions)
	if demuxed.ByteHitRatio() < muxed.ByteHitRatio() {
		t.Errorf("demuxed byte hit ratio %.3f < muxed %.3f", demuxed.ByteHitRatio(), muxed.ByteHitRatio())
	}
}

func TestNewCacheRejectsBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive capacity should panic")
		}
	}()
	NewCache(0)
}

func TestModeString(t *testing.T) {
	if Demuxed.String() != "demuxed" || Muxed.String() != "muxed" {
		t.Errorf("mode strings wrong: %s/%s", Demuxed, Muxed)
	}
}

func TestPopulationDeterministicAndBounded(t *testing.T) {
	c := media.DramaShow()
	pop := Population{Viewers: 50, VideoZipf: 1.2, AudioSpread: 3, Seed: 7}
	a := pop.Sessions(c)
	b := pop.Sessions(c)
	if len(a) != 50 {
		t.Fatalf("sessions = %d", len(a))
	}
	for i := range a {
		if a[i].Combo.String() != b[i].Combo.String() {
			t.Fatal("population not deterministic")
		}
		if a[i].Combo.Video == nil || a[i].Combo.Audio == nil {
			t.Fatal("incomplete combo")
		}
	}
}

func TestPopulationZipfSkew(t *testing.T) {
	c := media.DramaShow()
	skewed := Population{Viewers: 2000, VideoZipf: 1.5, Seed: 1}.Sessions(c)
	counts := map[string]int{}
	for _, s := range skewed {
		counts[s.Combo.Video.ID]++
	}
	// The top rung by popularity must dominate the least popular by a wide
	// margin under Zipf 1.5.
	max, min := 0, len(skewed)
	for _, id := range []string{"V1", "V2", "V3", "V4", "V5", "V6"} {
		n := counts[id]
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	if max < 4*min {
		t.Errorf("zipf skew too flat: max=%d min=%d (%v)", max, min, counts)
	}
}

func TestRankVideoRungs(t *testing.T) {
	got := rankVideoRungs(6)
	if len(got) != 6 || got[0] != 3 {
		t.Errorf("order = %v", got)
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate rung %d in %v", i, got)
		}
		seen[i] = true
	}
	if got := rankVideoRungs(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("single rung order = %v", got)
	}
}

func TestCacheSweepDemuxedDominates(t *testing.T) {
	c := media.DramaShow()
	pop := Population{Viewers: 30, VideoZipf: 1.2, AudioSpread: 3, Seed: 3}
	sizes := []int64{64 << 20, 256 << 20, 1 << 30}
	points := CacheSweep(c, pop, sizes, 0)
	if len(points) != len(sizes)*2 {
		t.Fatalf("points = %d", len(points))
	}
	byKey := map[string]Stats{}
	for _, p := range points {
		byKey[fmt.Sprintf("%d/%s", p.CacheBytes, p.Mode)] = p.Stats
	}
	for _, size := range sizes {
		d := byKey[fmt.Sprintf("%d/demuxed", size)]
		m := byKey[fmt.Sprintf("%d/muxed", size)]
		if d.ByteHitRatio() < m.ByteHitRatio() {
			t.Errorf("cache %d MB: demuxed byte hit %.3f < muxed %.3f",
				size>>20, d.ByteHitRatio(), m.ByteHitRatio())
		}
	}
	// Hit ratios must be non-decreasing in cache size for each mode.
	for _, mode := range []Mode{Demuxed, Muxed} {
		prev := -1.0
		for _, size := range sizes {
			hr := byKey[fmt.Sprintf("%d/%s", size, mode)].HitRatio()
			if hr+1e-9 < prev {
				t.Errorf("%s: hit ratio decreased with cache size (%f -> %f)", mode, prev, hr)
			}
			prev = hr
		}
	}
}

func TestContains(t *testing.T) {
	c := NewCache(100)
	if c.Contains("a") {
		t.Error("empty cache contains a")
	}
	c.Request(Object{Key: "a", Size: 40})
	before := c.Stats()
	if !c.Contains("a") {
		t.Error("cached object not reported by Contains")
	}
	if got := c.Stats(); got != before {
		t.Errorf("Contains mutated stats: %+v vs %+v", got, before)
	}
}

// listCache is the reference LRU: the container/list implementation Cache
// replaced, kept to check the intrusive list against.
type listCache struct {
	capacity int64
	used     int64
	lru      *list.List // front = most recent; values are Objects
	entries  map[string]*list.Element
	stats    Stats
}

func newListCache(capacity int64) *listCache {
	return &listCache{capacity: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

func (c *listCache) Request(obj Object) (hit bool) {
	c.stats.Requests++
	c.stats.BytesServed += obj.Size
	if el, ok := c.entries[obj.Key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	c.stats.BytesOrigin += obj.Size
	if obj.Size > c.capacity {
		return false
	}
	for c.used+obj.Size > c.capacity {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(Object)
		c.used -= ev.Size
		delete(c.entries, ev.Key)
		c.lru.Remove(back)
		c.stats.Evictions++
	}
	c.entries[obj.Key] = c.lru.PushFront(obj)
	c.used += obj.Size
	return false
}

// keys lists the cached keys from most to least recently used.
func (c *listCache) keys() []string {
	var out []string
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(Object).Key)
	}
	return out
}

// recency lists the cached keys from most to least recently used, walking
// the intrusive list both ways to check its back links.
func (c *Cache) recency(t *testing.T) []string {
	var out []string
	for i := c.head; i != none; i = c.nodes[i].next {
		out = append(out, c.nodes[i].key)
	}
	var back []string
	for i := c.tail; i != none; i = c.nodes[i].prev {
		back = append(back, c.nodes[i].key)
	}
	slices.Reverse(back)
	if !slices.Equal(out, back) {
		t.Fatalf("recency list forward %v, backward %v", out, back)
	}
	return out
}

// TestCacheMatchesListLRU replays seeded random request streams through
// Cache and the reference listCache: every hit, the recency order (and so
// the eviction order), Used and Stats must agree after every request.
// Streams mix hot and cold keys, capacities that hold a few objects or
// most of them, and objects larger than the whole cache. Every other
// stream runs on a cache that served another stream, at another capacity,
// and was Reset to the stream's.
func TestCacheMatchesListLRU(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(200 + rng.Intn(4000))
		nkeys := 4 + rng.Intn(60)
		sizes := make([]int64, nkeys)
		for k := range sizes {
			sizes[k] = 1 + rng.Int63n(capacity*5/4) // some exceed the capacity
		}
		got, want := NewCache(capacity), newListCache(capacity)
		if seed%2 == 0 {
			got = NewCache(2 * capacity)
			for n := 0; n < 500; n++ {
				got.Request(Object{Key: fmt.Sprintf("old%d", rng.Intn(nkeys)), Size: sizes[rng.Intn(nkeys)]})
			}
			got.Reset(capacity)
		}
		for n := 0; n < 2000; n++ {
			k := rng.Intn(nkeys)
			if rng.Intn(2) == 0 {
				k = rng.Intn(1 + nkeys/4) // hot keys
			}
			obj := Object{Key: fmt.Sprintf("k%d", k), Size: sizes[k]}
			if g, w := got.Request(obj), want.Request(obj); g != w {
				t.Fatalf("seed %d, request %d (%v): hit %v, reference %v", seed, n, obj, g, w)
			}
			if g, w := got.recency(t), want.keys(); !slices.Equal(g, w) {
				t.Fatalf("seed %d, request %d: recency %v, reference %v", seed, n, g, w)
			}
			if got.Used() != want.used || got.Stats() != want.stats {
				t.Fatalf("seed %d, request %d: used %d stats %+v, reference used %d stats %+v",
					seed, n, got.Used(), got.Stats(), want.used, want.stats)
			}
		}
		if got.Stats().Evictions == 0 {
			t.Fatalf("seed %d: the stream never evicted", seed)
		}
	}
}
