package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// TestNewModelsShareNothing builds two models of every kind from one
// parse and runs one of them on transfer events and decisions. The other
// must then decide and estimate, step for step, as a model from a parse of
// its own does: models copied from one parse share no mutable state, only
// what they derived from the manifest, which none of them writes.
func TestNewModelsShareNothing(t *testing.T) {
	c := media.DramaShow()
	for _, kind := range PlayerKinds() {
		m, err := ParseManifest(kind, c, ManifestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		own, err := parseManifest(kind, c, ManifestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		used, other := m.NewModel(), m.NewModel()
		drive(used, c, 8_000_000)
		got, want := drive(other, c, 2_000_000), drive(own.NewModel(), c, 2_000_000)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a model whose sibling ran decides\n%v\nwhere a fresh model decides\n%v", kind, got, want)
		}
	}
}

// drive feeds model one chunk position at a time: a video and an audio
// transfer, at about bps with a variation by position, sampled every
// Shaka interval, then a decision at a buffer level that rises and falls,
// and an abandonment check for a model that has one. It returns what the
// model estimated and decided at each step.
func drive(model abr.Algorithm, c *media.Content, bps float64) []string {
	var log []string
	chunk := c.ChunkDuration
	var last media.Combo
	for k := range 12 {
		at := time.Duration(k) * chunk
		rate := bps * float64(4+k%5) / 6
		for _, typ := range []media.Type{media.Video, media.Audio} {
			bytes := rate / 8 * chunk.Seconds() / 2
			if typ == media.Audio {
				bytes /= 8
			}
			dur := time.Duration(bytes * 8 / rate * float64(time.Second))
			model.OnStart(abr.TransferInfo{Type: typ, At: at})
			n := int(dur / estimator.ShakaSampleInterval)
			for i := range n {
				model.OnProgress(abr.TransferInfo{Type: typ, Bytes: bytes / float64(n+1), Duration: estimator.ShakaSampleInterval,
					At: at + time.Duration(i+1)*estimator.ShakaSampleInterval})
			}
			model.OnComplete(abr.TransferInfo{Type: typ, Bytes: bytes, Duration: dur, At: at + dur})
		}
		buf := time.Duration(k%7) * 4 * time.Second
		st := abr.State{
			Now: at, PlayPos: at, VideoBuffer: buf, AudioBuffer: buf + time.Second,
			ChunkIndex: k, ChunkDuration: chunk, Startup: k == 0,
			LastVideo: last.Video, LastAudio: last.Audio,
		}
		switch m := model.(type) {
		case abr.JointAlgorithm:
			last = m.SelectCombo(st)
		case abr.PerTypeAlgorithm:
			last = media.Combo{Video: m.SelectTrack(media.Video, st), Audio: m.SelectTrack(media.Audio, st)}
		}
		step := fmt.Sprintf("%d: %s+%s", k, last.Video.ID, last.Audio.ID)
		if br, ok := model.(abr.BandwidthReporter); ok {
			est, ok := br.BandwidthEstimate()
			step += fmt.Sprintf(" est %v %v", est, ok)
		}
		if ab, ok := model.(abr.Abandoner); ok {
			repl := ab.Abandon(abr.DownloadProgress{
				Type: media.Video, Track: last.Video, ChunkIndex: k,
				BytesDone: float64(last.Video.AvgBitrate) / 80, BytesTotal: int64(last.Video.AvgBitrate) * 5 / 8,
				Elapsed: time.Second, Buffer: buf,
			})
			if repl != nil {
				step += " abandon to " + repl.ID
			}
		}
		log = append(log, step)
	}
	return log
}
