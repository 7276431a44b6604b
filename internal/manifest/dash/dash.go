// Package dash writes and parses the subset of MPEG-DASH Media Presentation
// Descriptions (ISO/IEC 23009-1) the paper's experiments exercise: a static
// MPD with one Period holding a video Adaptation Set and an audio Adaptation
// Set, each Representation declaring its @bandwidth.
//
// The DASH-specific properties at the heart of §2.3: per-track bandwidths
// ARE declared (unlike HLS's aggregate-only top level), but there is NO
// mechanism to restrict which audio/video combinations a client may pair —
// every client is free to combine any Representations, which is what forces
// ExoPlayer to predetermine its own subset and lets Shaka build the full
// cross product.
package dash

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"demuxabr/internal/media"
)

// MPD is the root element.
type MPD struct {
	XMLName                   xml.Name `xml:"MPD"`
	Xmlns                     string   `xml:"xmlns,attr"`
	Profiles                  string   `xml:"profiles,attr"`
	Type                      string   `xml:"type,attr"`
	MediaPresentationDuration string   `xml:"mediaPresentationDuration,attr,omitempty"`
	MinBufferTime             string   `xml:"minBufferTime,attr"`
	Periods                   []Period `xml:"Period"`
}

// Period is a content period.
type Period struct {
	ID             string          `xml:"id,attr,omitempty"`
	Duration       string          `xml:"duration,attr,omitempty"`
	AdaptationSets []AdaptationSet `xml:"AdaptationSet"`
}

// AdaptationSet groups interchangeable Representations of one component.
type AdaptationSet struct {
	ContentType      string           `xml:"contentType,attr"`
	MimeType         string           `xml:"mimeType,attr"`
	SegmentAlignment bool             `xml:"segmentAlignment,attr"`
	SegmentTemplate  *SegmentTemplate `xml:"SegmentTemplate,omitempty"`
	Representations  []Representation `xml:"Representation"`
}

// SegmentTemplate addresses chunks by number.
type SegmentTemplate struct {
	Media          string `xml:"media,attr"`
	Initialization string `xml:"initialization,attr"`
	// Duration is the nominal segment duration in timescale units; 0 (and
	// absent from the XML) when the timeline is declared variable — then
	// the SegmentTimeline below is the sole, authoritative duration source.
	Duration int64 `xml:"duration,attr,omitempty"`
	// Timescale is how many @duration and S@d units make a second; nil
	// when the attribute is absent (see UnitsPerSecond).
	Timescale *int64 `xml:"timescale,attr"`
	// StartNumber is the $Number$ of the first segment; nil when the
	// attribute is absent (see FirstNumber).
	StartNumber *int64 `xml:"startNumber,attr"`
	// Timeline, when present, carries the authoritative per-segment
	// durations (irregular chunking, e.g. a short final chunk).
	Timeline *SegmentTimeline `xml:"SegmentTimeline,omitempty"`
}

// FirstNumber returns the $Number$ of the first segment: @startNumber, or
// 1 when the attribute is absent, the default of ISO/IEC 23009-1.
func (st *SegmentTemplate) FirstNumber() int64 {
	if st.StartNumber == nil {
		return 1
	}
	return *st.StartNumber
}

// UnitsPerSecond returns the timescale: @timescale, or 1 when the
// attribute is absent, the default of ISO/IEC 23009-1.
func (st *SegmentTemplate) UnitsPerSecond() int64 {
	if st.Timescale == nil {
		return 1
	}
	return *st.Timescale
}

// SegmentTimeline is the explicit duration list.
type SegmentTimeline struct {
	S []S `xml:"S"`
}

// S is one SegmentTimeline entry: a run of 1+Repeat segments of Duration
// timescale units starting at time T (T optional on continuation entries).
type S struct {
	T int64 `xml:"t,attr,omitempty"`
	D int64 `xml:"d,attr"`
	R int64 `xml:"r,attr,omitempty"`
}

// MaxSegments caps how many segments SegmentDurations expands one
// SegmentTemplate into: about twelve days of one-second segments, and 8 MiB
// of durations. A manifest from outside can declare any count (an
// S@r of 1<<40, or a 1 ms @duration over a year), and the expansion
// allocates one entry per segment, so a larger count is refused before
// anything is allocated.
const MaxSegments = 1 << 20

// SegmentDurations expands a SegmentTemplate into per-segment durations.
// With a Timeline the expansion is exact; otherwise every segment has the
// nominal @duration and the caller's total bounds the count (a total of 0,
// as the linter passes when the MPD declares no duration, yields none).
// Either way, more than MaxSegments segments is an error, and so is a
// duration of more units than a time.Duration can count the nanoseconds
// of at timescale 1 (about 292 years), which the conversion would wrap.
func (st *SegmentTemplate) SegmentDurations(total time.Duration) ([]time.Duration, error) {
	timescale := st.UnitsPerSecond()
	if timescale <= 0 {
		return nil, fmt.Errorf("dash: non-positive timescale")
	}
	const maxUnits = math.MaxInt64 / int64(time.Second)
	toDur := func(units int64) time.Duration {
		return time.Duration(units) * time.Second / time.Duration(timescale)
	}
	if st.Timeline != nil {
		n := int64(0)
		for i, s := range st.Timeline.S {
			if s.D > maxUnits {
				return nil, fmt.Errorf("dash: SegmentTimeline S[%d] duration %d overflows", i, s.D)
			}
			if toDur(s.D) <= 0 {
				return nil, fmt.Errorf("dash: SegmentTimeline S[%d] has non-positive duration", i)
			}
			if s.R < 0 {
				return nil, fmt.Errorf("dash: SegmentTimeline S[%d] has negative repeat", i)
			}
			if s.R >= MaxSegments-n {
				return nil, fmt.Errorf("dash: SegmentTimeline declares more than %d segments", MaxSegments)
			}
			n += 1 + s.R
		}
		if n == 0 {
			return nil, fmt.Errorf("dash: empty SegmentTimeline")
		}
		out := make([]time.Duration, 0, n)
		for _, s := range st.Timeline.S {
			for k := int64(0); k <= s.R; k++ {
				out = append(out, toDur(s.D))
			}
		}
		return out, nil
	}
	if st.Duration <= 0 {
		return nil, fmt.Errorf("dash: SegmentTemplate has neither @duration nor a SegmentTimeline")
	}
	if st.Duration > maxUnits {
		return nil, fmt.Errorf("dash: @duration %d overflows", st.Duration)
	}
	seg := toDur(st.Duration)
	if seg <= 0 {
		// A sub-nanosecond segment would never cover the total.
		return nil, fmt.Errorf("dash: @duration %d at timescale %d is shorter than a nanosecond", st.Duration, timescale)
	}
	if total <= 0 {
		return nil, nil
	}
	n := total / seg
	if total%seg != 0 {
		n++
	}
	if n > MaxSegments {
		return nil, fmt.Errorf("dash: @duration %v over %v is more than %d segments", seg, total, MaxSegments)
	}
	out := make([]time.Duration, 0, n)
	for covered := time.Duration(0); covered < total; covered += seg {
		d := seg
		if covered+d > total {
			d = total - covered
		}
		out = append(out, d)
	}
	return out, nil
}

// Representation is one encoded track.
type Representation struct {
	ID        string `xml:"id,attr"`
	Bandwidth int64  `xml:"bandwidth,attr"`
	Codecs    string `xml:"codecs,attr,omitempty"`
	// Video attributes.
	Width  int `xml:"width,attr,omitempty"`
	Height int `xml:"height,attr,omitempty"`
	// Audio attributes.
	AudioSamplingRate         int                        `xml:"audioSamplingRate,attr,omitempty"`
	AudioChannelConfiguration *AudioChannelConfiguration `xml:"AudioChannelConfiguration,omitempty"`
}

// AudioChannelConfiguration declares the channel count.
type AudioChannelConfiguration struct {
	SchemeIDURI string `xml:"schemeIdUri,attr"`
	Value       int    `xml:"value,attr"`
}

// FormatDuration renders a duration as ISO 8601 (e.g. "PT5M0S").
func FormatDuration(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	total := d.Seconds()
	hours := int(total) / 3600
	minutes := (int(total) % 3600) / 60
	seconds := total - float64(hours*3600+minutes*60)
	var b strings.Builder
	b.WriteString("PT")
	if hours > 0 {
		fmt.Fprintf(&b, "%dH", hours)
	}
	if minutes > 0 {
		fmt.Fprintf(&b, "%dM", minutes)
	}
	//lint:ignore floateq exact integrality test only picks the rendering; both branches format correctly
	if seconds == float64(int(seconds)) {
		fmt.Fprintf(&b, "%dS", int(seconds))
	} else {
		fmt.Fprintf(&b, "%.3fS", seconds)
	}
	return b.String()
}

var isoDurationRe = regexp.MustCompile(`^PT(?:(\d+)H)?(?:(\d+)M)?(?:(\d+(?:\.\d+)?)S)?$`)

// ParseDuration parses an ISO 8601 time duration ("PT1H2M3.5S").
func ParseDuration(s string) (time.Duration, error) {
	m := isoDurationRe.FindStringSubmatch(s)
	if m == nil || (m[1] == "" && m[2] == "" && m[3] == "") {
		return 0, fmt.Errorf("dash: bad ISO 8601 duration %q", s)
	}
	var totalMs int64
	if m[1] != "" {
		h, _ := strconv.Atoi(m[1])
		totalMs += int64(h) * 3_600_000
	}
	if m[2] != "" {
		min, _ := strconv.Atoi(m[2])
		totalMs += int64(min) * 60_000
	}
	if m[3] != "" {
		sec, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return 0, fmt.Errorf("dash: bad seconds in %q", s)
		}
		// Millisecond precision, computed exactly (FormatDuration emits at
		// most three decimals).
		totalMs += int64(sec*1000 + 0.5)
	}
	return time.Duration(totalMs) * time.Millisecond, nil
}

var resolutionWH = map[string][2]int{
	"144p":  {256, 144},
	"240p":  {426, 240},
	"360p":  {640, 360},
	"480p":  {854, 480},
	"720p":  {1280, 720},
	"1080p": {1920, 1080},
}

// Generate builds the MPD for content: one video and one audio Adaptation
// Set, Representations declaring the tracks' DeclaredBitrate — exactly the
// information the paper's Table 1 "Declared Bitrate for DASH" column feeds
// to DASH clients.
func Generate(c *media.Content) *MPD {
	videoSet := AdaptationSet{
		ContentType:      "video",
		MimeType:         "video/mp4",
		SegmentAlignment: true,
		SegmentTemplate: &SegmentTemplate{
			Media:          "video/$RepresentationID$/seg-$Number$.m4s",
			Initialization: "video/$RepresentationID$/init.mp4",
			Duration:       nominalDurationFor(c, media.Video),
			Timescale:      msTimescale(),
			StartNumber:    new(int64), // the origin numbers segments from 0
			Timeline:       timelineFor(c, media.Video),
		},
	}
	for _, v := range c.VideoTracks {
		wh := resolutionWH[v.Resolution]
		videoSet.Representations = append(videoSet.Representations, Representation{
			ID:        v.ID,
			Bandwidth: int64(v.DeclaredBitrate),
			Codecs:    "avc1.4d401f",
			Width:     wh[0],
			Height:    wh[1],
		})
	}
	audioSet := AdaptationSet{
		ContentType:      "audio",
		MimeType:         "audio/mp4",
		SegmentAlignment: true,
		SegmentTemplate: &SegmentTemplate{
			Media:          "audio/$RepresentationID$/seg-$Number$.m4s",
			Initialization: "audio/$RepresentationID$/init.mp4",
			Duration:       nominalDurationFor(c, media.Audio),
			Timescale:      msTimescale(),
			StartNumber:    new(int64), // the origin numbers segments from 0
			Timeline:       timelineFor(c, media.Audio),
		},
	}
	for _, a := range c.AudioTracks {
		rep := Representation{
			ID:                a.ID,
			Bandwidth:         int64(a.DeclaredBitrate),
			Codecs:            "mp4a.40.2",
			AudioSamplingRate: a.SampleRateHz,
		}
		if a.Channels > 0 {
			rep.AudioChannelConfiguration = &AudioChannelConfiguration{
				SchemeIDURI: "urn:mpeg:dash:23003:3:audio_channel_configuration:2011",
				Value:       a.Channels,
			}
		}
		audioSet.Representations = append(audioSet.Representations, rep)
	}
	return &MPD{
		Xmlns:                     "urn:mpeg:dash:schema:mpd:2011",
		Profiles:                  "urn:mpeg:dash:profile:isoff-live:2011",
		Type:                      "static",
		MediaPresentationDuration: FormatDuration(c.Duration),
		MinBufferTime:             FormatDuration(2 * time.Second),
		Periods: []Period{{
			ID:             "0",
			Duration:       FormatDuration(c.Duration),
			AdaptationSets: []AdaptationSet{videoSet, audioSet},
		}},
	}
}

// msTimescale returns a new @timescale of milliseconds, the unit of every
// duration Generate writes.
func msTimescale() *int64 {
	ms := int64(time.Second / time.Millisecond)
	return &ms
}

// timelineFor emits an explicit SegmentTimeline for one track type when the
// type's timeline cannot be expressed by @duration alone: shaped content
// (full run-length-encoded table) or a final chunk shorter than the nominal
// duration. Uniform exact-multiple content returns nil, keeping those MPDs
// byte-identical to pre-shaping output.
func timelineFor(c *media.Content, t media.Type) *SegmentTimeline {
	n := c.NumChunksOf(t)
	if c.Irregular(t) {
		// Declared-variable timeline: run-length encode the boundary table.
		var ss []S
		for i := 0; i < n; i++ {
			d := int64(c.ChunkDurationOf(t, i) / time.Millisecond)
			if len(ss) > 0 && ss[len(ss)-1].D == d {
				ss[len(ss)-1].R++
				continue
			}
			ss = append(ss, S{D: d})
		}
		return &SegmentTimeline{S: ss}
	}
	last := c.ChunkDurationOf(t, n-1)
	if last == c.ChunkDuration || n < 2 {
		return nil
	}
	full := int64(c.ChunkDuration / time.Millisecond)
	return &SegmentTimeline{S: []S{
		{T: 0, D: full, R: int64(n - 2)},
		{D: int64(last / time.Millisecond)},
	}}
}

// nominalDurationFor returns the @duration attribute value for one track
// type: the nominal chunk duration in ms, or 0 (attribute omitted) for
// shaped timelines, where SegmentTimeline is authoritative and a nominal
// value would invite clients to do exactly the division arithmetic this
// package stopped trusting.
func nominalDurationFor(c *media.Content, t media.Type) int64 {
	if c.Irregular(t) {
		return 0
	}
	return int64(c.ChunkDuration / time.Millisecond)
}

// Encode writes the MPD as indented XML with a declaration header.
func (m *MPD) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Parse reads an MPD document.
func Parse(r io.Reader) (*MPD, error) {
	var m MPD
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("dash: %w", err)
	}
	if len(m.Periods) == 0 {
		return nil, fmt.Errorf("dash: MPD has no Period")
	}
	return &m, nil
}

// Ladders reconstructs track ladders from a parsed MPD. Only the declared
// bandwidth is knowable from a manifest, so AvgBitrate and PeakBitrate are
// set to it — exactly the information position of a real DASH client.
func Ladders(m *MPD) (video, audio media.Ladder, err error) {
	for _, p := range m.Periods {
		for _, as := range p.AdaptationSets {
			for _, rep := range as.Representations {
				tr := &media.Track{
					ID:              rep.ID,
					AvgBitrate:      media.Bps(rep.Bandwidth),
					PeakBitrate:     media.Bps(rep.Bandwidth),
					DeclaredBitrate: media.Bps(rep.Bandwidth),
				}
				switch as.ContentType {
				case "video":
					tr.Type = media.Video
					video = append(video, tr)
				case "audio":
					tr.Type = media.Audio
					tr.SampleRateHz = rep.AudioSamplingRate
					if rep.AudioChannelConfiguration != nil {
						tr.Channels = rep.AudioChannelConfiguration.Value
					}
					audio = append(audio, tr)
				default:
					return nil, nil, fmt.Errorf("dash: unsupported contentType %q", as.ContentType)
				}
			}
		}
	}
	if err := video.Validate(); err != nil {
		return nil, nil, fmt.Errorf("dash: video: %w", err)
	}
	if err := audio.Validate(); err != nil {
		return nil, nil, fmt.Errorf("dash: audio: %w", err)
	}
	return video, audio, nil
}
