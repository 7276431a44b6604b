package core

import (
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// memoContents are the assets the memo tests parse: the paper's drama
// show and a content built here, whose irregular last chunk the presets
// lack.
func memoContents(t *testing.T) []*media.Content {
	t.Helper()
	c, err := media.NewContent(media.ContentSpec{
		Name:          "memo",
		Duration:      62 * time.Second,
		ChunkDuration: 4 * time.Second,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.DefaultChunkModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*media.Content{media.DramaShow(), c}
}

// sameParse fails the test unless got and want are equal parses of c. The
// VBRJoint chunk sizer is a closure, which reflect.DeepEqual cannot
// compare, so it is compared by its value at every chunk of every track.
func sameParse(t *testing.T, c *media.Content, got, want *ParsedManifest) {
	t.Helper()
	g, w := *got, *want
	if (g.sizer == nil) != (w.sizer == nil) {
		t.Fatalf("%s on %s: chunk sizer present %v, want %v", w.kind, c.Name, g.sizer != nil, w.sizer != nil)
	}
	if w.sizer != nil {
		for _, tr := range c.Tracks() {
			for i := range c.NumChunksOf(tr.Type) {
				if gs, ws := g.sizer(tr, i), w.sizer(tr, i); gs != ws {
					t.Fatalf("%s on %s: %s chunk %d sized %d, want %d", w.kind, c.Name, tr.ID, i, gs, ws)
				}
			}
		}
		g.sizer, w.sizer = nil, nil
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s on %s: memoized parse differs from a fresh one", w.kind, c.Name)
	}
}

// TestParseManifestMemo checks that a zero-option parse is memoized per
// (kind, content) and equals an un-memoized parse, and that non-zero
// options always parse afresh.
func TestParseManifestMemo(t *testing.T) {
	for _, c := range memoContents(t) {
		for _, kind := range PlayerKinds() {
			m, err := ParseManifest(kind, c, ManifestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := parseManifest(kind, c, ManifestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameParse(t, c, m, fresh)
			if again, _ := ParseManifest(kind, c, ManifestOptions{}); again != m {
				t.Errorf("%s on %s: repeat call returned a different parse", kind, c.Name)
			}
			for _, mo := range []ManifestOptions{
				{Combos: media.HSub(c)},
				{AudioOrder: c.AudioTracks},
			} {
				own, err := ParseManifest(kind, c, mo)
				if err != nil {
					t.Fatal(err)
				}
				if own == m {
					t.Errorf("%s on %s: options %+v returned the memoized parse", kind, c.Name, mo)
				}
				sameParse(t, c, own, m)
			}
		}
	}
}

// TestParseManifestMemoSharedByPlay runs every kind on both contents
// through concurrent Play sessions, which all build their models from the
// memoized parses, and checks that no model wrote to them.
func TestParseManifestMemoSharedByPlay(t *testing.T) {
	contents := memoContents(t)
	kinds := PlayerKinds()
	type job struct {
		c    *media.Content
		kind PlayerKind
	}
	var jobs []job
	for range 2 {
		for _, c := range contents {
			for _, kind := range kinds {
				jobs = append(jobs, job{c, kind})
			}
		}
	}
	_, err := runpool.Map(4, len(jobs), func(i int) (*Session, error) {
		return Play(Spec{Content: jobs[i].c, Profile: trace.Fig3VaryingAvg600(), Player: jobs[i].kind})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contents {
		for _, kind := range kinds {
			m, err := ParseManifest(kind, c, ManifestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := parseManifest(kind, c, ManifestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameParse(t, c, m, fresh)
		}
	}
}
