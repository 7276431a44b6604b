package core

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/jointabr"
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

// sameParse fails the test unless got and want are equal parses of c: the
// same declared combinations, and new models that are equal. The VBRJoint
// chunk sizer is a closure, which reflect.DeepEqual cannot compare, so it
// is compared by its value at every chunk of every track.
func sameParse(t *testing.T, kind PlayerKind, c *media.Content, got, want *ParsedManifest) {
	t.Helper()
	if !reflect.DeepEqual(got.Allowed(), want.Allowed()) {
		t.Fatalf("%s on %s: declared combinations differ", kind, c.Name)
	}
	g, gs := withoutSizer(got.NewModel())
	w, ws := withoutSizer(want.NewModel())
	if (gs == nil) != (ws == nil) {
		t.Fatalf("%s on %s: chunk sizer present %v, want %v", kind, c.Name, gs != nil, ws != nil)
	}
	if ws != nil {
		for _, tr := range c.Tracks() {
			for i := range c.NumChunksOf(tr.Type) {
				if g, w := gs(tr, i), ws(tr, i); g != w {
					t.Fatalf("%s on %s: %s chunk %d sized %d, want %d", kind, c.Name, tr.ID, i, g, w)
				}
			}
		}
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s on %s: memoized parse differs from a fresh one", kind, c.Name)
	}
}

// withoutSizer returns a copy of model with its chunk sizer cleared, and
// the sizer; nil for a model without one. The field is unexported, so it
// is reached through its address.
func withoutSizer(model abr.Algorithm) (abr.Algorithm, jointabr.ChunkSizer) {
	v := reflect.New(reflect.TypeOf(model).Elem())
	v.Elem().Set(reflect.ValueOf(model).Elem())
	var sizer jointabr.ChunkSizer
	for i := range v.Elem().NumField() {
		if f := v.Elem().Field(i); f.Type() == reflect.TypeOf(sizer) {
			field := reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			sizer = field.Interface().(jointabr.ChunkSizer)
			field.SetZero()
		}
	}
	return v.Interface().(abr.Algorithm), sizer
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
			sameParse(t, kind, c, m, fresh)
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
				sameParse(t, kind, c, own, m)
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
			sameParse(t, kind, c, m, fresh)
		}
	}
}
