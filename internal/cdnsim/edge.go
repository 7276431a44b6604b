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
}

// NewEdge wraps a cache as a shared edge for the given number of
// concurrent sessions, serving the content in the given packaging mode.
func NewEdge(cache *Cache, mode Mode, content *media.Content, sessions int) *Edge {
	if sessions < 0 {
		panic("cdnsim: negative session count")
	}
	return &Edge{
		cache:   cache,
		mode:    mode,
		content: content,
		per:     make([]Stats, sessions),
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
	st := trackStream(e.content, tr)
	return e.request(session, Object{Key: st.keys[idx], Size: st.sizes[idx]})
}

// RequestMuxed serves one muxed combination chunk for a session and reports
// whether it hit the cache.
func (e *Edge) RequestMuxed(session int, video, audio *media.Track, idx int) bool {
	st := muxedStream(e.content, video, audio)
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
