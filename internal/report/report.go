// Package report serializes streaming-session outcomes to a stable JSON
// document for offline analysis and plotting — the machine-readable
// counterpart of the text tables in package experiments.
package report

import (
	"encoding/json"
	"fmt"
	"io"

	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/timeline"
)

// Session is the export schema. Durations are serialized in seconds to be
// directly plottable.
type Session struct {
	Model           string  `json:"model"`
	Content         string  `json:"content"`
	ContentDuration float64 `json:"content_duration_s"`
	StartupDelay    float64 `json:"startup_delay_s"`
	Ended           bool    `json:"ended"`

	Metrics Metrics `json:"metrics"`

	Timeline     []Point       `json:"timeline"`
	Chunks       []Chunk       `json:"chunks"`
	Stalls       []Stall       `json:"stalls"`
	Abandonments []Abandonment `json:"abandonments,omitempty"`

	// TimelineCounters carries the flight-recorder counters registry when
	// the session ran with a recorder attached; nil otherwise.
	TimelineCounters *TimelineCounters `json:"timeline_counters,omitempty"`

	// Transport carries the connection-level accounting when the session
	// ran with a transport configured and the transport charged anything
	// observable; nil otherwise — so transport-free (and zero-cost
	// transport) documents keep their exact pre-transport shape.
	Transport *TransportReport `json:"transport,omitempty"`

	// Live carries the latency-target accounting of live sessions; nil for
	// VOD — so VOD documents keep their exact pre-live shape.
	Live *LiveReport `json:"live,omitempty"`
}

// LiveReport is the export shape of player.LiveStats.
type LiveReport struct {
	LatencyTargetS float64 `json:"latency_target_s"`
	JoinLatencyS   float64 `json:"join_latency_s"`
	MeanLatencyS   float64 `json:"mean_latency_s"`
	MaxLatencyS    float64 `json:"max_latency_s"`
	FinalLatencyS  float64 `json:"final_latency_s"`
	Samples        int     `json:"samples"`
	RateChanges    int     `json:"rate_changes"`
	CatchupS       float64 `json:"catchup_s"`
	SlowdownS      float64 `json:"slowdown_s"`
	MeanRate       float64 `json:"mean_rate"`
	Resyncs        int     `json:"resyncs"`
	SkippedS       float64 `json:"skipped_s"`
}

// TransportReport is the export shape of player.TransportStats.
type TransportReport struct {
	Protocol         string  `json:"protocol"`
	Handshakes       int     `json:"handshakes"`
	Resumes          int     `json:"resumes"`
	FailedHandshakes int     `json:"failed_handshakes"`
	Migrations       int     `json:"migrations"`
	HoLStalls        int     `json:"hol_stalls"`
	HandshakeWaitS   float64 `json:"handshake_wait_s"`
	HoLWaitS         float64 `json:"hol_wait_s"`
}

// TimelineCounters is the export shape of the flight recorder's counters
// registry (see internal/timeline).
type TimelineCounters struct {
	Events          int64 `json:"events"`
	Decisions       int64 `json:"decisions"`
	Requests        int64 `json:"requests"`
	Retries         int64 `json:"retries"`
	Timeouts        int64 `json:"timeouts"`
	Blacklists      int64 `json:"blacklists"`
	Failovers       int64 `json:"failovers"`
	Faults          int64 `json:"faults"`
	Stalls          int64 `json:"stalls"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	BytesDownloaded int64 `json:"bytes_downloaded"`
	// Handshakes and HoLStalls mirror the transport counters; omitempty
	// keeps transport-free documents byte-identical to their
	// pre-transport shape.
	Handshakes int64 `json:"handshakes,omitempty"`
	HoLStalls  int64 `json:"hol_stalls,omitempty"`
	// LatencySamples, RateChanges and LiveResyncs mirror the live counters;
	// omitempty keeps VOD documents byte-identical to their pre-live shape.
	LatencySamples int64 `json:"latency_samples,omitempty"`
	RateChanges    int64 `json:"rate_changes,omitempty"`
	LiveResyncs    int64 `json:"live_resyncs,omitempty"`
}

// CountersFrom converts a timeline counters registry to the export shape.
func CountersFrom(c timeline.Counters) *TimelineCounters {
	return &TimelineCounters{
		Events:          c.Events,
		Decisions:       c.Decisions,
		Requests:        c.Requests,
		Retries:         c.Retries,
		Timeouts:        c.Timeouts,
		Blacklists:      c.Blacklists,
		Failovers:       c.Failovers,
		Faults:          c.Faults,
		Stalls:          c.Stalls,
		CacheHits:       c.CacheHits,
		CacheMisses:     c.CacheMisses,
		BytesDownloaded: c.BytesDownloaded,
		Handshakes:      c.Handshakes,
		HoLStalls:       c.HoLStalls,
		LatencySamples:  c.LatencySamples,
		RateChanges:     c.RateChanges,
		LiveResyncs:     c.LiveResyncs,
	}
}

// Metrics mirrors qoe.Metrics in plottable units.
type Metrics struct {
	AvgVideoKbps    float64 `json:"avg_video_kbps"`
	AvgAudioKbps    float64 `json:"avg_audio_kbps"`
	VideoQuality    float64 `json:"video_quality"`
	AudioQuality    float64 `json:"audio_quality"`
	VideoSwitches   int     `json:"video_switches"`
	AudioSwitches   int     `json:"audio_switches"`
	DistinctCombos  int     `json:"distinct_combos"`
	OffManifest     int     `json:"off_manifest_chunks"`
	StallCount      int     `json:"stall_count"`
	RebufferSecs    float64 `json:"rebuffer_s"`
	RebufferRatio   float64 `json:"rebuffer_ratio"`
	StartupSecs     float64 `json:"startup_s"`
	MaxImbalanceS   float64 `json:"max_imbalance_s"`
	MeanImbalanceS  float64 `json:"mean_imbalance_s"`
	BufferHealthP10 float64 `json:"buffer_health_p10_s"`
	Score           float64 `json:"qoe_score"`
}

// Point is one timeline sample.
type Point struct {
	At           float64 `json:"t_s"`
	PlayPos      float64 `json:"playpos_s"`
	Video        string  `json:"video,omitempty"`
	Audio        string  `json:"audio,omitempty"`
	VideoBuffer  float64 `json:"vbuf_s"`
	AudioBuffer  float64 `json:"abuf_s"`
	EstimateKbps float64 `json:"estimate_kbps,omitempty"`
	Stalled      bool    `json:"stalled,omitempty"`
}

// Chunk is one downloaded chunk.
type Chunk struct {
	Index     int     `json:"index"`
	Type      string  `json:"type"`
	Track     string  `json:"track"`
	Bytes     int64   `json:"bytes"`
	Decided   float64 `json:"decided_s"`
	Completed float64 `json:"completed_s"`
}

// Stall is one rebuffering event.
type Stall struct {
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// Abandonment is one cancelled-and-replaced download.
type Abandonment struct {
	Index int     `json:"index"`
	Type  string  `json:"type"`
	From  string  `json:"from"`
	To    string  `json:"to"`
	At    float64 `json:"t_s"`
}

// MetricsFrom converts qoe metrics to the plottable export shape.
func MetricsFrom(m qoe.Metrics) Metrics {
	return Metrics{
		AvgVideoKbps:    m.AvgVideoBitrate.Kbps(),
		AvgAudioKbps:    m.AvgAudioBitrate.Kbps(),
		VideoQuality:    m.AvgVideoQuality,
		AudioQuality:    m.AvgAudioQuality,
		VideoSwitches:   m.VideoSwitches,
		AudioSwitches:   m.AudioSwitches,
		DistinctCombos:  m.DistinctCombos,
		OffManifest:     m.OffManifest,
		StallCount:      m.StallCount,
		RebufferSecs:    m.RebufferTime.Seconds(),
		RebufferRatio:   m.RebufferRatio,
		StartupSecs:     m.StartupDelay.Seconds(),
		MaxImbalanceS:   m.MaxImbalance.Seconds(),
		MeanImbalanceS:  m.MeanImbalance.Seconds(),
		BufferHealthP10: m.BufferHealth.P10,
		Score:           m.Score,
	}
}

// FromResult flattens a session result and its metrics into the schema.
func FromResult(contentName string, res *player.Result, m qoe.Metrics) *Session {
	s := &Session{
		Model:           res.ModelName,
		Content:         contentName,
		ContentDuration: res.ContentDuration.Seconds(),
		StartupDelay:    res.StartupDelay.Seconds(),
		Ended:           res.Ended,
		Metrics:         MetricsFrom(m),
	}
	if t := res.Transport; t != nil {
		s.Transport = &TransportReport{
			Protocol:         t.Protocol,
			Handshakes:       t.Handshakes,
			Resumes:          t.Resumes,
			FailedHandshakes: t.FailedHandshakes,
			Migrations:       t.Migrations,
			HoLStalls:        t.HoLStalls,
			HandshakeWaitS:   t.HandshakeWait.Seconds(),
			HoLWaitS:         t.HoLWait.Seconds(),
		}
	}
	if l := res.Live; l != nil {
		s.Live = &LiveReport{
			LatencyTargetS: l.LatencyTarget.Seconds(),
			JoinLatencyS:   l.JoinLatency.Seconds(),
			MeanLatencyS:   l.MeanLatency.Seconds(),
			MaxLatencyS:    l.MaxLatency.Seconds(),
			FinalLatencyS:  l.FinalLatency.Seconds(),
			Samples:        l.Samples,
			RateChanges:    l.RateChanges,
			CatchupS:       l.CatchupTime.Seconds(),
			SlowdownS:      l.SlowdownTime.Seconds(),
			MeanRate:       l.MeanRate,
			Resyncs:        l.Resyncs,
			SkippedS:       l.SkippedTime.Seconds(),
		}
	}
	for _, p := range res.Timeline {
		point := Point{
			At:          p.At.Seconds(),
			PlayPos:     p.PlayPos.Seconds(),
			VideoBuffer: p.VideoBuffer.Seconds(),
			AudioBuffer: p.AudioBuffer.Seconds(),
			Stalled:     p.Stalled,
		}
		if p.Video != nil {
			point.Video = p.Video.ID
		}
		if p.Audio != nil {
			point.Audio = p.Audio.ID
		}
		if p.EstimateOK {
			point.EstimateKbps = p.Estimate.Kbps()
		}
		s.Timeline = append(s.Timeline, point)
	}
	for _, c := range res.Chunks {
		s.Chunks = append(s.Chunks, Chunk{
			Index:     c.Index,
			Type:      c.Type.String(),
			Track:     c.Track.ID,
			Bytes:     c.Bytes,
			Decided:   c.DecidedAt.Seconds(),
			Completed: c.CompletedAt.Seconds(),
		})
	}
	for _, st := range res.Stalls {
		s.Stalls = append(s.Stalls, Stall{Start: st.Start.Seconds(), End: st.End.Seconds()})
	}
	for _, ab := range res.Abandonments {
		s.Abandonments = append(s.Abandonments, Abandonment{
			Index: ab.Index, Type: ab.Type.String(),
			From: ab.From.ID, To: ab.To.ID, At: ab.At.Seconds(),
		})
	}
	return s
}

// WriteJSON serializes the session with indentation.
func (s *Session) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON loads a session document.
func ReadJSON(r io.Reader) (*Session, error) {
	var s Session
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	if s.Model == "" {
		return nil, fmt.Errorf("report: document has no model field")
	}
	return &s, nil
}
