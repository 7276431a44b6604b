package report

import (
	"bytes"
	"strings"
	"testing"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/trace"
)

type fixedJoint struct {
	abr.NopObserver
	combo media.Combo
}

func (f *fixedJoint) Name() string                      { return "fixed" }
func (f *fixedJoint) SelectCombo(abr.State) media.Combo { return f.combo }

func runSession(t *testing.T) (*player.Result, *media.Content, qoe.Metrics) {
	t.Helper()
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(2000)))
	combo := media.Combo{Video: c.VideoTracks[2], Audio: c.AudioTracks[1]}
	res, err := player.Run(link, player.Config{Content: c, Model: &fixedJoint{combo: combo}, KeepTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	return res, c, qoe.Compute(res, c, media.HSub(c), qoe.DefaultWeights())
}

func TestRoundTrip(t *testing.T) {
	res, c, m := runSession(t)
	s := FromResult(c.Name, res, m)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "fixed" || got.Content != "drama-show" || !got.Ended {
		t.Errorf("header fields wrong: %+v", got)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("session kept no timeline")
	}
	if len(got.Timeline) != len(res.Timeline) {
		t.Errorf("timeline %d vs %d", len(got.Timeline), len(res.Timeline))
	}
	if len(got.Chunks) != len(res.Chunks) {
		t.Errorf("chunks %d vs %d", len(got.Chunks), len(res.Chunks))
	}
	if got.Metrics.AvgVideoKbps != m.AvgVideoBitrate.Kbps() {
		t.Errorf("avg video %v vs %v", got.Metrics.AvgVideoKbps, m.AvgVideoBitrate.Kbps())
	}
	if got.ContentDuration != 300 {
		t.Errorf("content duration = %v", got.ContentDuration)
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("invalid JSON should fail")
	}
	if _, err := ReadJSON(strings.NewReader("{}")); err == nil {
		t.Error("document without model should fail")
	}
}

func TestJSONFieldNamesStable(t *testing.T) {
	// The export schema is a public contract for plotting scripts; pin the
	// key names.
	res, c, m := runSession(t)
	var buf bytes.Buffer
	if err := FromResult(c.Name, res, m).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"model"`, `"qoe_score"`, `"rebuffer_s"`, `"timeline"`, `"t_s"`,
		`"vbuf_s"`, `"abuf_s"`, `"chunks"`, `"off_manifest_chunks"`,
		`"max_imbalance_s"`, `"buffer_health_p10_s"`,
	} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("missing key %s in export", key)
		}
	}
}
