package core

import (
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

func TestPlayDefaults(t *testing.T) {
	s, err := Play(Spec{Profile: trace.Fixed(media.Kbps(2000))})
	if err != nil {
		t.Fatal(err)
	}
	if s.Model != "bestpractice" {
		t.Errorf("default model = %s", s.Model)
	}
	if !s.Result.Ended {
		t.Error("session did not end")
	}
	if s.Metrics.OffManifest != 0 {
		t.Errorf("best practice selected %d off-manifest chunks", s.Metrics.OffManifest)
	}
	if s.Allowed == nil {
		t.Error("allowed list missing for an HLS-manifest player")
	}
}

func TestPlayRequiresProfile(t *testing.T) {
	if _, err := Play(Spec{}); err == nil {
		t.Error("nil profile should fail")
	}
}

func TestEveryPlayerKindRuns(t *testing.T) {
	for _, kind := range PlayerKinds() {
		t.Run(string(kind), func(t *testing.T) {
			s, err := Play(Spec{
				Profile: trace.Fixed(media.Kbps(1500)),
				Player:  kind,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !s.Result.Ended {
				t.Error("session did not end")
			}
			if len(s.Result.Chunks) == 0 {
				t.Error("no chunks downloaded")
			}
		})
	}
}

// TestEmptyDeclaredListRefused plays every kind with a declared
// combination list that is empty. The DASH kinds read no master playlist
// and play; every HLS kind must refuse the manifest with an error rather
// than panic building its model.
func TestEmptyDeclaredListRefused(t *testing.T) {
	for _, kind := range PlayerKinds() {
		t.Run(string(kind), func(t *testing.T) {
			s, err := Play(Spec{
				Profile:  trace.Fixed(media.Kbps(1500)),
				Player:   kind,
				Manifest: ManifestOptions{Combos: []media.Combo{}},
			})
			switch kind {
			case ExoPlayerDASH, DashJS:
				if err != nil {
					t.Fatal(err)
				}
				if !s.Result.Ended {
					t.Error("session did not end")
				}
			default:
				if err == nil {
					t.Error("an empty master playlist was accepted")
				}
			}
		})
	}
}

// TestModelInterfaces pins which of the abr interfaces each kind's model
// implements; the engine picks its scheduling and abandonment by them, so
// a change to how a model is composed must neither add nor drop one.
func TestModelInterfaces(t *testing.T) {
	type ifaces struct{ joint, perType, observer, reporter, abandoner bool }
	joint := ifaces{joint: true, observer: true, reporter: true}
	want := map[PlayerKind]ifaces{
		ExoPlayerDASH:           joint,
		ExoPlayerHLS:            joint,
		Shaka:                   joint,
		DashJS:                  {perType: true, observer: true, reporter: true, abandoner: true},
		BestPractice:            {joint: true, observer: true, reporter: true, abandoner: true},
		BestPracticeIndependent: {perType: true, observer: true, reporter: true},
		BestPracticeAbandon:     {joint: true, observer: true, reporter: true, abandoner: true},
		BolaJoint:               joint,
		MPCJoint:                joint,
		VBRJoint:                joint,
		DynamicJoint:            joint,
		LLDefault:               joint,
		LLL2A:                   joint,
		LLLoLP:                  joint,
	}
	c := media.DramaShow()
	for _, kind := range PlayerKinds() {
		m, err := ParseManifest(kind, c, ManifestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got ifaces
		model := any(m.NewModel())
		_, got.joint = model.(abr.JointAlgorithm)
		_, got.perType = model.(abr.PerTypeAlgorithm)
		_, got.observer = model.(abr.Observer)
		_, got.reporter = model.(abr.BandwidthReporter)
		_, got.abandoner = model.(abr.Abandoner)
		if w, ok := want[kind]; !ok || got != w {
			t.Errorf("%s implements %+v, want %+v", kind, got, w)
		}
	}
}

func TestParsePlayerKind(t *testing.T) {
	if _, err := ParsePlayerKind("exoplayer-dash"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePlayerKind("vlc"); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestBuildModelUnknownKind(t *testing.T) {
	if _, _, err := BuildModel("nope", media.DramaShow(), ManifestOptions{}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestManifestOptionsRespected(t *testing.T) {
	c := media.DramaShow()
	// List A3 first: ExoPlayer-HLS must pin it.
	order := []*media.Track{c.AudioTracks[2], c.AudioTracks[1], c.AudioTracks[0]}
	s, err := Play(Spec{
		Content:  c,
		Profile:  trace.Fixed(media.Kbps(2000)),
		Player:   ExoPlayerHLS,
		Manifest: ManifestOptions{AudioOrder: order},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics.AvgAudioBitrate != c.AudioTracks[2].AvgBitrate {
		t.Errorf("avg audio = %v, want pinned A3 (%v)", s.Metrics.AvgAudioBitrate, c.AudioTracks[2].AvgBitrate)
	}
}

func TestBufferOverrides(t *testing.T) {
	s, err := Play(Spec{
		Profile:      trace.Fixed(media.Kbps(5000)),
		Player:       BestPractice,
		MaxBuffer:    12 * time.Second,
		KeepTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Result.Timeline) == 0 {
		t.Fatal("no timeline samples to check")
	}
	limit := 12*time.Second + media.DramaChunkDuration + time.Second
	for _, sm := range s.Result.Timeline {
		if sm.VideoBuffer > limit {
			t.Fatalf("buffer %v exceeds overridden cap", sm.VideoBuffer)
		}
	}
}

// TestIntegrationMatrix runs every player kind under several network
// conditions and checks the engine invariants: playback ends, the session
// time identity holds, every chunk position is streamed once per type, and
// buffers never exceed the cap.
func TestIntegrationMatrix(t *testing.T) {
	profiles := map[string]trace.Profile{
		"fixed-700k":  trace.Fixed(media.Kbps(700)),
		"fixed-2M":    trace.Fixed(media.Kbps(2000)),
		"bimodal-600": trace.Fig4bBimodal600(),
		"randomwalk":  trace.RandomWalk(9, media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute),
	}
	content := media.DramaShow()
	for _, kind := range PlayerKinds() {
		for pname, profile := range profiles {
			t.Run(string(kind)+"/"+pname, func(t *testing.T) {
				t.Parallel()
				s, err := Play(Spec{Content: content, Profile: profile, Player: kind, KeepTimeline: true})
				if err != nil {
					t.Fatal(err)
				}
				res := s.Result
				if !res.Ended {
					t.Fatal("playback did not end")
				}
				want := res.StartupDelay + res.ContentDuration + res.RebufferTime()
				if diff := (res.EndedAt - want).Abs(); diff > time.Millisecond {
					t.Errorf("time identity violated: ended %v, want %v", res.EndedAt, want)
				}
				counts := map[media.Type]map[int]int{media.Video: {}, media.Audio: {}}
				for _, ch := range res.Chunks {
					counts[ch.Type][ch.Index]++
				}
				for typ, m := range counts {
					if len(m) != content.NumChunks() {
						t.Errorf("%s: %d distinct positions, want %d", typ, len(m), content.NumChunks())
					}
				}
				if len(res.Timeline) == 0 {
					t.Fatal("no timeline samples to check")
				}
				limit := 30*time.Second + content.ChunkDuration + time.Second
				for _, sm := range res.Timeline {
					if sm.VideoBuffer > limit || sm.AudioBuffer > limit {
						t.Fatalf("buffer cap violated at %v: %v/%v", sm.At, sm.VideoBuffer, sm.AudioBuffer)
					}
				}
			})
		}
	}
}
