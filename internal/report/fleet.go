package report

import (
	"encoding/json"
	"io"

	"demuxabr/internal/qoe"
	"demuxabr/internal/stats"
)

// Fleet is the export schema for a multi-session co-simulation: per-session
// outcomes plus the fleet-level aggregates (QoE distribution, Jain's
// fairness, shared-cache effectiveness). Durations are serialized in
// seconds to be directly plottable.
type Fleet struct {
	Content  string `json:"content"`
	Mode     string `json:"mode"` // packaging: demuxed or muxed
	Sessions int    `json:"sessions"`
	// Completed counts sessions that played the content to the end.
	Completed int `json:"completed"`

	// Aggregation is "sketch" when the distributions below were streamed
	// through fixed-resolution histograms (large fleets) instead of
	// computed exactly from retained sessions. Omitted on the exact path,
	// keeping small-fleet documents byte-identical to earlier versions.
	Aggregation string `json:"aggregation,omitempty"`
	// Cells is the number of independent contention cells the fleet was
	// partitioned into; omitted for the classic single-cell fleet.
	Cells int `json:"cells,omitempty"`
	// SampledSessions is the size of the per_session reservoir sample on
	// the sketch path (per_session then holds a uniform sample, not the
	// whole fleet). Omitted on the exact path.
	SampledSessions int `json:"sampled_sessions,omitempty"`

	JainVideoKbps float64 `json:"jain_video_kbps"`

	Score Distribution `json:"qoe_score"`
	// ScoreCompleted is the QoE distribution over sessions that played to
	// the end only. When every session aborts it is the empty distribution
	// (all-null quantiles, n-free), which must still marshal cleanly.
	ScoreCompleted Distribution `json:"qoe_score_completed"`
	VideoKbps      Distribution `json:"video_kbps"`
	AudioKbps      Distribution `json:"audio_kbps"`
	RebufferS      Distribution `json:"rebuffer_s"`
	StartupS       Distribution `json:"startup_s"`

	// Live carries the fleet-level latency aggregates of live runs; nil for
	// VOD fleets — so VOD documents keep their exact pre-live shape.
	Live *FleetLive `json:"live,omitempty"`

	Cache CacheStats `json:"cache"`

	// TimelineCounters aggregates the flight-recorder counters across all
	// sessions when the run was recorded; nil otherwise.
	TimelineCounters *TimelineCounters `json:"timeline_counters,omitempty"`

	PerSession []FleetSession `json:"per_session"`
}

// Distribution mirrors stats.Summary for JSON export.
type Distribution struct {
	Min    float64 `json:"min"`
	P10    float64 `json:"p10"`
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
}

// MarshalJSON renders NaN/Inf quantiles (the empty distribution) as null;
// encoding/json rejects them outright, which used to make an all-abort
// fleet's export fail.
func (d Distribution) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Min    stats.NullableFloat `json:"min"`
		P10    stats.NullableFloat `json:"p10"`
		Median stats.NullableFloat `json:"median"`
		P90    stats.NullableFloat `json:"p90"`
		Max    stats.NullableFloat `json:"max"`
		Mean   stats.NullableFloat `json:"mean"`
	}{
		Min:    stats.NullableFloat(d.Min),
		P10:    stats.NullableFloat(d.P10),
		Median: stats.NullableFloat(d.Median),
		P90:    stats.NullableFloat(d.P90),
		Max:    stats.NullableFloat(d.Max),
		Mean:   stats.NullableFloat(d.Mean),
	})
}

// UnmarshalJSON accepts the null-quantile form, decoding null back to NaN.
func (d *Distribution) UnmarshalJSON(data []byte) error {
	var in struct {
		Min    stats.NullableFloat `json:"min"`
		P10    stats.NullableFloat `json:"p10"`
		Median stats.NullableFloat `json:"median"`
		P90    stats.NullableFloat `json:"p90"`
		Max    stats.NullableFloat `json:"max"`
		Mean   stats.NullableFloat `json:"mean"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*d = Distribution{
		Min:    float64(in.Min),
		P10:    float64(in.P10),
		Median: float64(in.Median),
		P90:    float64(in.P90),
		Max:    float64(in.Max),
		Mean:   float64(in.Mean),
	}
	return nil
}

// FleetLive is the export shape of qoe.FleetLiveMetrics: the distribution
// of per-session mean live-edge latency, plus the fleet's resync total.
type FleetLive struct {
	LatencyS Distribution `json:"latency_s"`
	Resyncs  int64        `json:"resyncs"`
}

// CacheStats is the shared-edge accounting: hit ratios and origin offload.
type CacheStats struct {
	Requests     int64   `json:"requests"`
	Hits         int64   `json:"hits"`
	HitRatio     float64 `json:"hit_ratio"`
	ByteHitRatio float64 `json:"byte_hit_ratio"`
	BytesServed  int64   `json:"bytes_served"`
	BytesOrigin  int64   `json:"bytes_origin"`
	// OriginOffload is the fraction of served bytes the origin never saw
	// (identical to ByteHitRatio, named for the operator's perspective).
	OriginOffload float64 `json:"origin_offload"`
}

// FleetSession is one session's row in a fleet report.
type FleetSession struct {
	ID       int     `json:"id"`
	Model    string  `json:"model"`
	ArrivalS float64 `json:"arrival_s"`
	Ended    bool    `json:"ended"`
	Metrics  Metrics `json:"metrics"`
	// CacheHitRatio is the fraction of this session's requests served from
	// the shared edge cache.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// FromSummary converts a stats.Summary to the export shape.
func FromSummary(s stats.Summary) Distribution {
	return Distribution{Min: s.Min, P10: s.P10, Median: s.Median, P90: s.P90, Max: s.Max, Mean: s.Mean}
}

// ApplyFleetMetrics fills the aggregate distribution fields from qoe fleet
// metrics.
func (f *Fleet) ApplyFleetMetrics(m qoe.FleetMetrics) {
	f.Sessions = m.Sessions
	f.JainVideoKbps = m.JainVideoKbps
	f.Score = FromSummary(m.Score)
	f.VideoKbps = FromSummary(m.VideoKbps)
	f.AudioKbps = FromSummary(m.AudioKbps)
	f.RebufferS = FromSummary(m.RebufferSeconds)
	f.StartupS = FromSummary(m.StartupSeconds)
	if m.Live != nil {
		f.Live = &FleetLive{LatencyS: FromSummary(m.Live.LatencySeconds), Resyncs: m.Live.Resyncs}
	}
}

// WriteJSON serializes the fleet report with indentation.
func (f *Fleet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
