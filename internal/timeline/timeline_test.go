package timeline

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/ledger"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
	if numKinds.String() != "unknown" {
		t.Errorf("out-of-range kind named %q", numKinds.String())
	}
}

func TestCountersTrackEvents(t *testing.T) {
	r := New(0, "s0")
	r.Emit(Event{Kind: Decision})
	r.Emit(Event{Kind: Request})
	r.Emit(Event{Kind: RequestDone, Bytes: 1000})
	r.Emit(Event{Kind: RequestDone, Bytes: 500})
	r.Emit(Event{Kind: Retry})
	r.Emit(Event{Kind: RequestTimeout})
	r.Emit(Event{Kind: Blacklist})
	r.Emit(Event{Kind: Failover})
	r.Emit(Event{Kind: FaultInjected})
	r.Emit(Event{Kind: StallStart})
	r.Emit(Event{Kind: CacheHit})
	r.Emit(Event{Kind: CacheMiss})
	c := r.Counters()
	want := Counters{
		Events: 12, Decisions: 1, Requests: 1, Retries: 1, Timeouts: 1,
		Blacklists: 1, Failovers: 1, Faults: 1, Stalls: 1,
		CacheHits: 1, CacheMisses: 1, BytesDownloaded: 1500,
	}
	if c != want {
		t.Errorf("counters = %+v, want %+v", c, want)
	}
	merged := c.Merge(c)
	if merged.Events != 24 || merged.BytesDownloaded != 3000 {
		t.Errorf("merge = %+v", merged)
	}
	if len(r.Events()) != 12 {
		t.Errorf("events = %d, want 12", len(r.Events()))
	}
}

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.Emit(Event{Kind: Decision}) // must not panic
	if r.Session() != -1 {
		t.Errorf("nil session = %d, want -1", r.Session())
	}
	if r.Label() != "" || r.Events() != nil {
		t.Error("nil recorder leaked state")
	}
	if (r.Counters() != Counters{}) {
		t.Error("nil recorder has nonzero counters")
	}
}

// TestTimelineDisabledAllocs pins the zero-overhead-when-disabled contract:
// emitting through a nil recorder must not allocate.
func TestTimelineDisabledAllocs(t *testing.T) {
	pin := ledger.For(t).Bound("nil recorder", "allocs")
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Enabled() {
			t.Fatal("nil recorder enabled")
		}
		r.Emit(Event{At: time.Second, Kind: Buffer, Index: -1})
	})
	if allocs > pin {
		t.Errorf("disabled recorder allocates %.1f allocs/op, pinned at %.0f", allocs, pin)
	}
}

func TestWriteJSONLSkipsOptionalFields(t *testing.T) {
	r := New(3, "s3")
	r.Emit(Event{At: 2 * time.Second, Kind: StallStart, Index: -1})
	r.Emit(Event{At: 4 * time.Second, Dur: 2 * time.Second, Kind: StallEnd, Index: -1})
	r.Emit(Event{At: 5 * time.Second, Kind: Request, Type: "video", Track: "V1", Index: 0, Bytes: 100})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []*Recorder{nil, r}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (nil recorder skipped):\n%s", len(lines), buf.String())
	}
	if strings.Contains(lines[0], `"index"`) {
		t.Errorf("stall event exported an index: %s", lines[0])
	}
	// Index 0 is meaningful and must survive omitempty.
	if !strings.Contains(lines[2], `"index":0`) && !strings.Contains(lines[2], `"index": 0`) {
		t.Errorf("request event lost chunk index 0: %s", lines[2])
	}
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Errorf("invalid JSONL line: %s", ln)
		}
		if !strings.Contains(ln, `"session":3`) {
			t.Errorf("line missing session: %s", ln)
		}
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	r := New(0, "s0")
	r.Emit(Event{At: time.Second, Kind: Decision, Type: "combo", Track: "V2+A2", Index: 0})
	r.Emit(Event{At: 3 * time.Second, Dur: 2 * time.Second, Kind: RequestDone, Type: "video", Track: "V2", Index: 0, Bytes: 900})
	r.Emit(Event{At: 4 * time.Second, Kind: Buffer, Index: -1, VideoBuf: 8 * time.Second, AudioBuf: 6 * time.Second})
	r.Emit(Event{At: 5 * time.Second, Kind: LinkRate, Type: "link", Index: -1, Rate: 600})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Recorder{r}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Ts  int64  `json:"ts"`
			Dur int64  `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph == "X" {
			// The span is laid back from its closing instant.
			if ev.Ts != (3*time.Second - 2*time.Second).Microseconds() {
				t.Errorf("X span starts at %d us", ev.Ts)
			}
			if ev.Dur != (2 * time.Second).Microseconds() {
				t.Errorf("X span lasts %d us", ev.Dur)
			}
		}
	}
	if phases["M"] == 0 || phases["X"] != 1 || phases["C"] != 2 || phases["i"] != 1 {
		t.Errorf("phase histogram = %v", phases)
	}
}

// TestVocabularyDocMatchesKinds parses the kind column of the event
// vocabulary table in docs/OBSERVABILITY.md and requires it to list every
// Kind, in declaration order, by its exported name.
func TestVocabularyDocMatchesKinds(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Event vocabulary\n")
	if !ok {
		t.Fatal("OBSERVABILITY.md has no \"Event vocabulary\" section")
	}
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			continue
		}
		// A kind cell holds one or more backquoted names joined by " / ".
		for _, name := range strings.Split(cells[1], "/") {
			name = strings.TrimSpace(name)
			if strings.HasPrefix(name, "`") && strings.HasSuffix(name, "`") {
				documented = append(documented, strings.Trim(name, "`"))
			}
		}
	}
	var want []string
	for k := Kind(0); k < numKinds; k++ {
		want = append(want, k.String())
	}
	if !slices.Equal(documented, want) {
		t.Errorf("OBSERVABILITY.md kind column:\n  %v\nKind registry:\n  %v", documented, want)
	}
}
