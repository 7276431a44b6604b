// Package cdnsim models the content-distribution motivation of the paper's
// §1: a CDN edge cache between clients and an origin, serving either muxed
// objects (one object per video+audio combination per chunk) or demuxed
// objects (separate video and audio objects per chunk).
//
// It quantifies the two §1 claims:
//
//   - storage: a service with M video and N audio tracks stores M+N track
//     objects demuxed but M×N muxed;
//   - cache hits: with demuxed objects, a user requesting (V1, A2) after
//     another user fetched (V1, A1) still hits the cache for V1's chunks,
//     while a muxed (V1+A2) object misses.
package cdnsim

import (
	"strconv"
	"sync"

	"demuxabr/internal/media"
)

// Object is a cacheable unit, identified by a key and a size in bytes.
type Object struct {
	Key  string
	Size int64
}

// Stats accumulates cache effectiveness counters.
type Stats struct {
	Requests    int64
	Hits        int64
	Misses      int64
	BytesServed int64 // to clients
	BytesOrigin int64 // fetched from origin (miss traffic)
	Evictions   int64
}

// HitRatio returns hits over requests.
func (s Stats) HitRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// Plus returns the counter-wise sum of two Stats — the aggregate of two
// disjoint edges (integer addition, so the fold order never matters).
func (s Stats) Plus(o Stats) Stats {
	return Stats{
		Requests:    s.Requests + o.Requests,
		Hits:        s.Hits + o.Hits,
		Misses:      s.Misses + o.Misses,
		BytesServed: s.BytesServed + o.BytesServed,
		BytesOrigin: s.BytesOrigin + o.BytesOrigin,
		Evictions:   s.Evictions + o.Evictions,
	}
}

// ByteHitRatio returns the fraction of served bytes that came from cache.
func (s Stats) ByteHitRatio() float64 {
	if s.BytesServed == 0 {
		return 0
	}
	return 1 - float64(s.BytesOrigin)/float64(s.BytesServed)
}

// Cache is an LRU byte-capacity cache — the CDN edge.
//
// The recency list is intrusive: cached objects live in the nodes slice
// and are linked by slot index, most recent at head, least recent at
// tail. An eviction puts its slot on a free chain that the next insert
// takes, so the slice grows only to the most objects ever cached at once,
// and a warm miss, even one that evicts, allocates nothing. index maps a
// key to its slot; the keys are the interned strings of the per-process
// key tables, so the map holds no copies.
type Cache struct {
	capacity int64
	used     int64
	nodes    []node
	// head and tail are the most and least recently used slots, free the
	// first vacated one; none is -1 when there is no such slot.
	head, tail, free int32
	index            map[string]int32
	stats            Stats
}

// node is one cached object. prev and next link it into the recency list
// (next alone into the free chain once it is evicted); -1 ends a list.
type node struct {
	key        string
	size       int64
	prev, next int32
}

// none is the slot index that ends a list.
const none = -1

// NewCache creates an LRU cache holding up to capacity bytes.
func NewCache(capacity int64) *Cache {
	if capacity <= 0 {
		panic("cdnsim: non-positive cache capacity")
	}
	return &Cache{
		capacity: capacity,
		head:     none,
		tail:     none,
		free:     none,
		index:    make(map[string]int32),
	}
}

// Reset empties the cache and zeroes its counters for another workload,
// keeping its node slice and its index map's buckets.
func (c *Cache) Reset() {
	clear(c.index)
	c.nodes = c.nodes[:0]
	c.head, c.tail, c.free = none, none, none
	c.used, c.stats = 0, Stats{}
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Contains reports whether an object is currently cached, without touching
// recency or counters.
func (c *Cache) Contains(key string) bool {
	_, ok := c.index[key]
	return ok
}

// Request serves an object through the cache: a hit refreshes recency; a
// miss charges origin traffic and inserts the object, evicting LRU entries
// as needed. Objects larger than the whole cache are served uncached.
func (c *Cache) Request(obj Object) (hit bool) {
	c.stats.Requests++
	c.stats.BytesServed += obj.Size
	if i, ok := c.index[obj.Key]; ok {
		c.unlink(i)
		c.pushFront(i)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	c.stats.BytesOrigin += obj.Size
	if obj.Size > c.capacity {
		return false
	}
	for c.used+obj.Size > c.capacity && c.tail != none {
		i := c.tail
		n := &c.nodes[i]
		c.used -= n.size
		delete(c.index, n.key)
		c.unlink(i)
		*n = node{next: c.free}
		c.free = i
		c.stats.Evictions++
	}
	i := c.free
	if i != none {
		c.free = c.nodes[i].next
	} else {
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{})
	}
	c.nodes[i] = node{key: obj.Key, size: obj.Size}
	c.pushFront(i)
	c.index[obj.Key] = i
	c.used += obj.Size
	return false
}

// unlink takes slot i out of the recency list.
func (c *Cache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != none {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != none {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *Cache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = none, c.head
	if c.head != none {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// Mode selects muxed or demuxed packaging at the origin.
type Mode int

const (
	// Demuxed stores audio and video as separate objects.
	Demuxed Mode = iota
	// Muxed stores one combined object per combination.
	Muxed
)

// String names the mode.
func (m Mode) String() string {
	if m == Muxed {
		return "muxed"
	}
	return "demuxed"
}

// muxedKey builds the cache key for one chunk of a muxed combination
// object, e.g. "muxed/V1+A1/3".
func muxedKey(video, audio *media.Track, idx int) string {
	return "muxed/" + video.ID + "+" + audio.ID + "/" + strconv.Itoa(idx)
}

// trackKey builds the cache key for one chunk of one demuxed track object,
// e.g. "video/V1/3".
func trackKey(t *media.Track, idx int) string {
	return t.Type.String() + "/" + t.ID + "/" + strconv.Itoa(idx)
}

// RequestChunk serves one playback position's data for a combination
// through the cache in the given mode. It returns the number of cache hits
// (0–1 muxed, 0–2 demuxed).
func RequestChunk(c *Cache, mode Mode, content *media.Content, combo media.Combo, idx int) int {
	hits := 0
	switch mode {
	case Muxed:
		size := content.ChunkSize(combo.Video, idx) + content.ChunkSize(combo.Audio, idx)
		if c.Request(Object{Key: muxedKey(combo.Video, combo.Audio, idx), Size: size}) {
			hits++
		}
	default:
		if c.Request(Object{Key: trackKey(combo.Video, idx), Size: content.ChunkSize(combo.Video, idx)}) {
			hits++
		}
		if c.Request(Object{Key: trackKey(combo.Audio, idx), Size: content.ChunkSize(combo.Audio, idx)}) {
			hits++
		}
	}
	return hits
}

// objectStream is the precomputed request sequence for one cacheable
// object family: key and size per chunk position. Building the keys once
// keeps the per-request path free of string formatting, which would
// otherwise dominate the allocation profile of the cache sweeps.
type objectStream struct {
	keys  []string
	sizes []int64
}

// streams memoizes the object streams: streamKey → *objectStream. A table
// is read-only once built, so every workload and every edge, on any
// goroutine, shares one per content and track or combination: the key
// strings cost O(distinct objects × chunks) per process, not per cell.
// Concurrent first requests may each build a table, but LoadOrStore hands
// all of them the one stored. Entries live for the life of the process,
// as core.ParseManifest's parses do; contents are immutable after
// construction and the program builds a bounded number of them.
var streams sync.Map

// streamKey identifies one memoized stream: a demuxed track's (muxedWith
// nil), or a muxed combination's (track is the video component).
type streamKey struct {
	content          *media.Content
	track, muxedWith *media.Track
}

// trackStream returns the stream of one demuxed track's chunks.
func trackStream(c *media.Content, tr *media.Track) *objectStream {
	key := streamKey{content: c, track: tr}
	if st, ok := streams.Load(key); ok {
		return st.(*objectStream)
	}
	n := c.NumChunksOf(tr.Type)
	st := &objectStream{keys: make([]string, n), sizes: c.TrackSizes(tr)}
	for idx := range n {
		st.keys[idx] = trackKey(tr, idx)
	}
	shared, _ := streams.LoadOrStore(key, st)
	return shared.(*objectStream)
}

// muxedStream returns the stream of one muxed combination's chunks.
func muxedStream(c *media.Content, video, audio *media.Track) *objectStream {
	key := streamKey{content: c, track: video, muxedWith: audio}
	if st, ok := streams.Load(key); ok {
		return st.(*objectStream)
	}
	n := c.NumChunks()
	st := &objectStream{keys: make([]string, n), sizes: make([]int64, n)}
	vs, as := c.TrackSizes(video), c.TrackSizes(audio)
	for idx := range n {
		st.keys[idx] = muxedKey(video, audio, idx)
		st.sizes[idx] = vs[idx] + as[idx]
	}
	shared, _ := streams.LoadOrStore(key, st)
	return shared.(*objectStream)
}

// sessionPlan resolves one session to its object streams (audio is nil in
// muxed mode, where one combined object carries both).
type sessionPlan struct {
	video *objectStream
	audio *objectStream
}

// request replays position idx of this session through the cache.
func (p sessionPlan) request(c *Cache, idx int) int {
	hits := 0
	if c.Request(Object{Key: p.video.keys[idx], Size: p.video.sizes[idx]}) {
		hits++
	}
	if p.audio != nil && c.Request(Object{Key: p.audio.keys[idx], Size: p.audio.sizes[idx]}) {
		hits++
	}
	return hits
}

// planSessions resolves a workload's sessions to their object streams.
// The workloads interleave audio and video by shared chunk index, which —
// like muxed packaging itself — assumes aligned A/V timelines; shaped
// per-type timelines are a player-path concern, not a CDN-object one.
func planSessions(mode Mode, c *media.Content, sessions []Session) []sessionPlan {
	plans := make([]sessionPlan, len(sessions))
	for i, s := range sessions {
		if mode == Muxed {
			plans[i] = sessionPlan{video: muxedStream(c, s.Combo.Video, s.Combo.Audio)}
		} else {
			plans[i] = sessionPlan{video: trackStream(c, s.Combo.Video), audio: trackStream(c, s.Combo.Audio)}
		}
	}
	return plans
}

// OriginStorage returns the total origin bytes needed to store the content
// in the given mode — the §1 storage argument (M+N tracks vs M×N muxed
// combinations).
func OriginStorage(content *media.Content, mode Mode, combos []media.Combo) int64 {
	var total int64
	switch mode {
	case Muxed:
		for _, cb := range combos {
			total += content.TrackBytes(cb.Video) + content.TrackBytes(cb.Audio)
		}
	default:
		for _, t := range content.Tracks() {
			total += content.TrackBytes(t)
		}
	}
	return total
}

// Session is one simulated viewer: the combination it selects per chunk.
type Session struct {
	// Combo is the viewer's steady selection (language/quality choice).
	Combo media.Combo
}

// Workload replays a set of viewer sessions through a cache and returns the
// stats. Viewers are interleaved chunk-by-chunk, approximating concurrent
// viewing of the same content.
func Workload(c *Cache, mode Mode, content *media.Content, sessions []Session) Stats {
	plans := planSessions(mode, content, sessions)
	n := content.NumChunks()
	for idx := 0; idx < n; idx++ {
		for _, p := range plans {
			p.request(c, idx)
		}
	}
	return c.Stats()
}
