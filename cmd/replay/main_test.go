package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"demuxabr/internal/abr/shaka"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/report"
	"demuxabr/internal/trace"
)

func TestRenderSession(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fig4bBimodal600())
	model := shaka.NewHLS(media.HAll(c))
	res, err := player.Run(link, player.Config{Content: c, Model: model, KeepTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := report.FromResult(c.Name, res, qoe.Compute(res, c, nil, qoe.DefaultWeights()))
	path := filepath.Join(t.TempDir(), "s.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run(path, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"buffer levels", "bandwidth estimate", "video track", "audio track", "shaka"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	// The Fig 4(b) signature: the selection chart includes V3 (the
	// overestimate-driven climb).
	if !strings.Contains(text, "V3 |") {
		t.Errorf("selection chart missing V3 row:\n%s", text)
	}
	var buf bytes.Buffer
	_ = buf
}

func TestRunErrors(t *testing.T) {
	if err := run("/nonexistent.json", os.Stdout); err == nil {
		t.Error("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{}"), 0o644)
	if err := run(bad, os.Stdout); err == nil {
		t.Error("model-less report should fail")
	}
}
