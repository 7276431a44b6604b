package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// jsonEvent is the JSONL export shape. Timestamps and durations are
// microseconds of engine time; zero-valued optional fields are omitted so a
// buffer sample stays one short line.
type jsonEvent struct {
	Session int     `json:"session"`
	Label   string  `json:"label,omitempty"`
	AtUS    int64   `json:"t_us"`
	DurUS   int64   `json:"dur_us,omitempty"`
	Kind    string  `json:"kind"`
	Type    string  `json:"type,omitempty"`
	Track   string  `json:"track,omitempty"`
	Index   *int    `json:"index,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Rate    float64 `json:"rate_kbps,omitempty"`
	VBufUS  int64   `json:"vbuf_us,omitempty"`
	ABufUS  int64   `json:"abuf_us,omitempty"`
}

// WriteJSONL exports the recorders' events as JSON Lines, one event per
// line, session-major (all of recorder 0, then recorder 1, ...). Within a
// recorder events keep emission order, which is engine event order — so the
// output is a deterministic function of the simulated run.
func WriteJSONL(w io.Writer, recs []*Recorder) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if r == nil {
			continue
		}
		for i := range r.events {
			ev := &r.events[i]
			je := jsonEvent{
				Session: r.session,
				Label:   r.label,
				AtUS:    ev.At.Microseconds(),
				DurUS:   ev.Dur.Microseconds(),
				Kind:    ev.Kind.String(),
				Type:    ev.Type,
				Track:   ev.Track,
				Attempt: ev.Attempt,
				Detail:  ev.Detail,
				Bytes:   ev.Bytes,
				Rate:    ev.Rate,
				VBufUS:  ev.VideoBuf.Microseconds(),
				ABufUS:  ev.AudioBuf.Microseconds(),
			}
			if ev.Index >= 0 {
				idx := ev.Index
				je.Index = &idx
			}
			if err := enc.Encode(&je); err != nil {
				return fmt.Errorf("timeline: %w", err)
			}
		}
	}
	return bw.Flush()
}

// traceEvent is one entry of the Chrome trace-event format ("JSON object
// format"), the schema chrome://tracing and https://ui.perfetto.dev accept.
// Each recorder becomes one process (pid = session index), named by its
// label via a metadata event; requests render as spans on per-type threads,
// buffers and rates as counter tracks, everything else as instants.
type traceEvent struct {
	Name  string `json:"name"`
	Ph    string `json:"ph"`
	TsUS  int64  `json:"ts"`
	DurUS int64  `json:"dur,omitempty"`
	Pid   int    `json:"pid"`
	Tid   int    `json:"tid"`
	Cat   string `json:"cat,omitempty"`
	S     string `json:"s,omitempty"`
	Args  any    `json:"args,omitempty"`
}

// traceDoc is the top-level Chrome trace document.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	// DisplayTimeUnit selects millisecond display; timestamps stay µs.
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// Thread IDs within one session's process: spans for each media type plus a
// lane for everything else.
const (
	tidSession = 0
	tidVideo   = 1
	tidAudio   = 2
)

func tidFor(typ string) int {
	switch typ {
	case "video":
		return tidVideo
	case "audio", "muxed":
		return tidAudio
	default:
		return tidSession
	}
}

// WriteChromeTrace exports the recorders as one Chrome trace-event document
// with one track (process) per recorder. Open it at https://ui.perfetto.dev
// or chrome://tracing.
func WriteChromeTrace(w io.Writer, recs []*Recorder) error {
	doc := traceDoc{DisplayTimeUnit: "ms"}
	for _, r := range recs {
		if r == nil {
			continue
		}
		doc.TraceEvents = append(doc.TraceEvents,
			traceEvent{Name: "process_name", Ph: "M", Pid: r.session, Tid: tidSession,
				Args: map[string]string{"name": r.label}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: r.session, Tid: tidSession,
				Args: map[string]string{"name": "session"}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: r.session, Tid: tidVideo,
				Args: map[string]string{"name": "video requests"}},
			traceEvent{Name: "thread_name", Ph: "M", Pid: r.session, Tid: tidAudio,
				Args: map[string]string{"name": "audio requests"}},
		)
		for i := range r.events {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent(r, &r.events[i]))
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&doc); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	return nil
}

// chromeEvent converts one recorded event to its trace-event rendering.
func chromeEvent(r *Recorder, ev *Event) traceEvent {
	te := traceEvent{
		Pid:  r.session,
		Tid:  tidFor(ev.Type),
		Cat:  ev.Kind.String(),
		TsUS: ev.At.Microseconds(),
	}
	switch ev.Kind {
	case RequestDone, StallEnd:
		// Spans: lay the duration back from the closing instant.
		te.Ph = "X"
		te.TsUS = (ev.At - ev.Dur).Microseconds()
		te.DurUS = ev.Dur.Microseconds()
		if ev.Kind == StallEnd {
			te.Name = "stall"
			te.Tid = tidSession
		} else {
			te.Name = fmt.Sprintf("%s #%d %s", ev.Type, ev.Index, ev.Track)
			te.Args = map[string]int64{"bytes": ev.Bytes, "attempt": int64(ev.Attempt)}
		}
	case Buffer:
		te.Ph = "C"
		te.Name = "buffer_s"
		te.Tid = tidSession
		args := map[string]float64{
			"video": ev.VideoBuf.Seconds(),
			"audio": ev.AudioBuf.Seconds(),
		}
		te.Args = args
	case LinkRate:
		te.Ph = "C"
		te.Name = "rate_kbps"
		te.Tid = tidSession
		te.Args = map[string]float64{"rate": ev.Rate}
	default:
		te.Ph = "i"
		te.S = "t"
		te.Name = ev.Kind.String()
		if ev.Track != "" {
			te.Name = ev.Kind.String() + " " + ev.Track
		}
		if ev.Detail != "" {
			te.Args = map[string]string{"detail": ev.Detail}
		}
	}
	return te
}

// WriteFiles exports the recorders under dir as <base>.jsonl and
// <base>.trace.json, creating the directory if needed.
func WriteFiles(dir, base string, recs []*Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	jf, err := os.Create(filepath.Join(dir, base+".jsonl"))
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if err := WriteJSONL(jf, recs); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	cf, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if err := WriteChromeTrace(cf, recs); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	return nil
}
