package cdnsim

import (
	"demuxabr/internal/media"
)

// Edge is a shared CDN edge cache serving many concurrent player sessions.
// Unlike Workload — which replays synthetic request schedules — an Edge is
// driven request-by-request in whatever order the sessions' downloads
// actually interleave on the network, and keeps per-session hit accounting
// alongside the cache-wide aggregate. This is what makes the cross-session
// demuxing benefit measurable: when session B requests the video track
// session A already pulled through the cache, B's hit is recorded as B's,
// and the aggregate shows the origin offload.
type Edge struct {
	cache   *Cache
	mode    Mode
	content *media.Content
	per     []Stats

	// Observer, when non-nil, sees every request's outcome after the
	// per-session accounting — the flight recorder's hook for cache
	// hit/miss events. It must not issue further requests.
	Observer func(session int, key string, size int64, hit bool)

	// Lazily built key/size tables, shared across sessions requesting the
	// same track or combination — the per-request path does no string
	// formatting (see objectStream).
	trackStreams map[*media.Track]*objectStream
	muxedStreams map[[2]*media.Track]*objectStream
}

// NewEdge wraps a cache as a shared edge for the given number of
// concurrent sessions, serving the content in the given packaging mode.
func NewEdge(cache *Cache, mode Mode, content *media.Content, sessions int) *Edge {
	if sessions < 0 {
		panic("cdnsim: negative session count")
	}
	return &Edge{
		cache:        cache,
		mode:         mode,
		content:      content,
		per:          make([]Stats, sessions),
		trackStreams: make(map[*media.Track]*objectStream),
		muxedStreams: make(map[[2]*media.Track]*objectStream),
	}
}

// Mode returns the packaging mode the edge serves.
func (e *Edge) Mode() Mode { return e.mode }

// Sessions returns the number of sessions the edge accounts for.
func (e *Edge) Sessions() int { return len(e.per) }

// Aggregate returns the cache-wide counters.
func (e *Edge) Aggregate() Stats { return e.cache.Stats() }

// SessionStats returns the counters attributed to one session.
func (e *Edge) SessionStats(i int) Stats { return e.per[i] }

// RequestTrack serves one demuxed track chunk for a session and reports
// whether it hit the cache.
func (e *Edge) RequestTrack(session int, tr *media.Track, idx int) bool {
	st := e.trackStream(tr)
	return e.request(session, Object{Key: st.keys[idx], Size: st.sizes[idx]})
}

// RequestMuxed serves one muxed combination chunk for a session and reports
// whether it hit the cache.
func (e *Edge) RequestMuxed(session int, video, audio *media.Track, idx int) bool {
	st := e.muxedStream(video, audio)
	return e.request(session, Object{Key: st.keys[idx], Size: st.sizes[idx]})
}

func (e *Edge) request(session int, obj Object) bool {
	hit := e.cache.Request(obj)
	s := &e.per[session]
	s.Requests++
	s.BytesServed += obj.Size
	if hit {
		s.Hits++
	} else {
		s.Misses++
		s.BytesOrigin += obj.Size
	}
	if e.Observer != nil {
		e.Observer(session, obj.Key, obj.Size, hit)
	}
	return hit
}

func (e *Edge) trackStream(tr *media.Track) *objectStream {
	st, ok := e.trackStreams[tr]
	if !ok {
		n := e.content.NumChunksOf(tr.Type)
		st = &objectStream{keys: make([]string, n), sizes: e.content.TrackSizes(tr)}
		for idx := 0; idx < n; idx++ {
			st.keys[idx] = trackKey(tr, idx)
		}
		e.trackStreams[tr] = st
	}
	return st
}

func (e *Edge) muxedStream(video, audio *media.Track) *objectStream {
	pair := [2]*media.Track{video, audio}
	st, ok := e.muxedStreams[pair]
	if !ok {
		n := e.content.NumChunks()
		st = &objectStream{
			keys:  make([]string, n),
			sizes: make([]int64, n),
		}
		vs, as := e.content.TrackSizes(video), e.content.TrackSizes(audio)
		for idx := 0; idx < n; idx++ {
			st.keys[idx] = muxedKey(video, audio, idx)
			st.sizes[idx] = vs[idx] + as[idx]
		}
		e.muxedStreams[pair] = st
	}
	return st
}
