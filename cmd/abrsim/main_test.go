package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/player"
	"demuxabr/internal/report"
)

// TestPlayerUsageListsEveryKind: the -player help text names exactly the
// kinds ParsePlayerKind accepts, in their order.
func TestPlayerUsageListsEveryKind(t *testing.T) {
	listed, ok := strings.CutPrefix(playerUsage(), "player model: ")
	if !ok {
		t.Fatalf("usage %q lacks its prefix", playerUsage())
	}
	var want []string
	for _, k := range core.PlayerKinds() {
		want = append(want, string(k))
	}
	if got := strings.Split(listed, ", "); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-player usage lists %v, want %v", got, want)
	}
}

func TestRunFixedBandwidth(t *testing.T) {
	tl := filepath.Join(t.TempDir(), "tl.csv")
	if err := run(options{player: "bestpractice", kbps: 900, content: "drama", manifest: "hsub", timelineCSV: tl}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t_s,playpos_s,video,audio") {
		t.Errorf("timeline header wrong: %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	if strings.Count(string(data), "\n") < 100 {
		t.Errorf("timeline too short: %d lines", strings.Count(string(data), "\n"))
	}
}

func TestRunTraceFile(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(traceFile, []byte("0,900\n30,300\n#cycle,60\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{player: "shaka", traceFile: traceFile, content: "drama", manifest: "hall"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAudioFirst(t *testing.T) {
	if err := run(options{player: "exoplayer-hls", kbps: 2000, content: "drama", manifest: "hsub", audioFirst: "A3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunContentVariants(t *testing.T) {
	for _, c := range []string{"drama-low-audio", "drama-high-audio"} {
		if err := run(options{player: "exoplayer-dash", kbps: 900, content: c, manifest: "hsub"}); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		o    options
	}{
		{"bad player", options{player: "vlc", content: "drama", manifest: "hsub", kbps: 100}},
		{"bad content", options{player: "shaka", content: "nope", manifest: "hsub", kbps: 100}},
		{"bad manifest", options{player: "shaka", content: "drama", manifest: "x", kbps: 100}},
		{"bad audio", options{player: "shaka", content: "drama", manifest: "hsub", audioFirst: "Z9", kbps: 100}},
		{"no bandwidth", options{player: "shaka", content: "drama", manifest: "hsub"}},
		{"missing trace", options{player: "shaka", content: "drama", manifest: "hsub", traceFile: "/nonexistent.csv"}},
	}
	for _, tc := range cases {
		if err := run(tc.o); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRunJSONExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "session.json")
	if err := run(options{player: "mpc-joint", kbps: 1300, content: "drama", manifest: "hsub", jsonOut: out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"model": "mpc-joint"`) {
		t.Errorf("JSON export missing model field")
	}
	if !strings.Contains(string(data), `"qoe_score"`) {
		t.Errorf("JSON export missing metrics")
	}
}

// TestTimelineKeptOnlyForItsReaders: a session keeps its per-sample log
// when -json or -timeline-csv will print it, and only then.
func TestTimelineKeptOnlyForItsReaders(t *testing.T) {
	base := options{player: "shaka", profile: "fig4b", content: "drama", manifest: "hall"}
	sess, err := playOnce(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sess.Result.Timeline); n != 0 {
		t.Errorf("a run that prints no timeline kept %d samples", n)
	}

	o := base
	o.jsonOut = filepath.Join(t.TempDir(), "session.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := report.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Timeline) == 0 {
		t.Error("-json report has an empty timeline")
	}

	o = base
	o.timelineCSV = filepath.Join(t.TempDir(), "tl.csv")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.timelineCSV)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(data), "\n") - 1; rows < 1 {
		t.Errorf("-timeline-csv wrote %d data rows", rows)
	}
}

func TestRunNamedProfile(t *testing.T) {
	if err := run(options{player: "shaka", profile: "fig4a", content: "drama", manifest: "hall"}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{player: "shaka", profile: "bogus", content: "drama", manifest: "hall"}); err == nil {
		t.Error("unknown profile should fail")
	}
}

func TestPlayOnceFaultFlags(t *testing.T) {
	o := options{player: "bestpractice", profile: "fig3", content: "drama", manifest: "hsub", faultRate: 0.01, faultSeed: 1009}
	on, err := playOnce(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if on.Result.Aborted {
		t.Fatalf("policy-on run aborted: %s", on.Result.AbortReason)
	}
	if len(on.Result.Faults) == 0 {
		t.Fatal("fault injection flags had no effect: no faults recorded")
	}
	o.noRetry = true
	off, err := playOnce(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !off.Result.Aborted {
		t.Error("-no-retry run survived a fault sequence that should abort it")
	}
}

func TestRunFleetDeterministicJSON(t *testing.T) {
	render := func() []byte {
		out := filepath.Join(t.TempDir(), "fleet.json")
		if err := runFleet(options{sessions: 4, arrivalSpread: 10 * time.Second, mix: "bestpractice,bola-joint", player: "bestpractice",
			kbps: 12000, content: "drama", manifest: "hsub", jsonOut: out, seed: 17}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := render()
	if !strings.Contains(string(first), `"jain_video_kbps"`) {
		t.Error("fleet JSON missing jain_video_kbps")
	}
	if !strings.Contains(string(first), `"sessions": 4`) {
		t.Error("fleet JSON missing session count")
	}
	if !strings.Contains(string(first), `"model": "bola-joint"`) {
		t.Error("fleet JSON missing round-robin model assignment")
	}
	if again := render(); string(first) != string(again) {
		t.Fatal("fleet JSON not byte-identical across runs")
	}
}

func TestRunFleetErrors(t *testing.T) {
	if err := runFleet(options{sessions: 4, mix: "bestpractice,vlc", player: "bestpractice",
		kbps: 12000, content: "drama", manifest: "hsub", seed: 17}); err == nil {
		t.Error("bad mix entry: expected error")
	}
	if err := runFleet(options{sessions: 4, player: "bestpractice",
		content: "drama", manifest: "hsub", seed: 17}); err == nil {
		t.Error("no bandwidth: expected error")
	}
}

func TestRunCompare(t *testing.T) {
	if err := runCompare(options{kbps: 900, content: "drama", manifest: "hsub"}); err != nil {
		t.Fatal(err)
	}
	if err := runCompare(options{content: "drama", manifest: "hsub", parallel: 1}); err == nil {
		t.Error("compare without bandwidth should fail")
	}
}

func TestRunTimelineDir(t *testing.T) {
	dir := t.TempDir()
	if err := run(options{player: "bestpractice", profile: "fig3", content: "drama", manifest: "hsub",
		timelineDir: dir, faultRate: 0.01, faultSeed: 1009}); err != nil {
		t.Fatal(err)
	}
	jsonl, err := os.ReadFile(filepath.Join(dir, "session.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"decision"`, `"request-done"`, `"retry"`} {
		if !strings.Contains(string(jsonl), kind) {
			t.Errorf("session.jsonl missing %s events", kind)
		}
	}
	traceJSON, err := os.ReadFile(filepath.Join(dir, "session.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(traceJSON) {
		t.Error("session.trace.json is not valid JSON")
	}
}

// TestTimelineCompareParallelEquivalence is the acceptance gate for the
// flight recorder's determinism: the exported timelines must be
// byte-identical between a serial run and a fully parallel one.
func TestTimelineCompareParallelEquivalence(t *testing.T) {
	render := func(parallel int) (jsonl, traceJSON []byte) {
		dir := t.TempDir()
		if err := runCompare(options{profile: "fig3", content: "drama", manifest: "hsub", parallel: parallel,
			timelineDir: dir, faultRate: 0.01, faultSeed: 1009}); err != nil {
			t.Fatal(err)
		}
		jsonl, err := os.ReadFile(filepath.Join(dir, "compare.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		traceJSON, err = os.ReadFile(filepath.Join(dir, "compare.trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		return jsonl, traceJSON
	}
	serialJSONL, serialTrace := render(1)
	parallelJSONL, parallelTrace := render(8)
	if string(serialJSONL) != string(parallelJSONL) {
		t.Error("compare.jsonl differs between -parallel 1 and -parallel 8")
	}
	if string(serialTrace) != string(parallelTrace) {
		t.Error("compare.trace.json differs between -parallel 1 and -parallel 8")
	}
	if !json.Valid(serialTrace) {
		t.Error("compare.trace.json is not valid JSON")
	}
}

// TestRunShaped exercises the -shaping preparation: per-type players play
// the shaped (misaligned) title, joint players refuse it, and the flag is
// validated.
func TestRunShaped(t *testing.T) {
	if err := run(options{player: "dashjs", kbps: 900, content: "drama", manifest: "hsub", shaping: "chunks", shapingSeed: 21}); err != nil {
		t.Fatal(err)
	}
	if err := run(options{player: "bestpractice", kbps: 900, content: "drama", manifest: "hsub", shaping: "chunks", shapingSeed: 21}); err == nil {
		t.Error("joint player on misaligned shaped content: expected error")
	} else if !strings.Contains(err.Error(), "aligned") {
		t.Errorf("joint-player error %q does not explain the alignment requirement", err)
	}
	if err := run(options{player: "dashjs", kbps: 900, content: "music-show", manifest: "hsub", shaping: "chunks", shapingSeed: 21}); err == nil {
		t.Error("-shaping with non-drama content: expected error")
	}
	if err := run(options{player: "dashjs", kbps: 900, content: "drama", manifest: "hsub", shaping: "bogus", shapingSeed: 21}); err == nil {
		t.Error("unknown -shaping mode: expected error")
	}
}

// TestWriteTimelineCSVReportsWriteErrors: a write that fails at the final
// flush is an error, not a silently truncated timeline.
func TestWriteTimelineCSVReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := writeTimelineCSV("/dev/full", []player.Sample{{At: time.Second}}); err == nil {
		t.Error("writing to /dev/full returned nil, want an error")
	}
}
