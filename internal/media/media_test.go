package media

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTable1Ladder(t *testing.T) {
	v := DramaVideoLadder()
	a := DramaAudioLadder()
	if err := v.Validate(); err != nil {
		t.Fatalf("video ladder invalid: %v", err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("audio ladder invalid: %v", err)
	}
	// Spot-check the exact Table 1 rows.
	cases := []struct {
		id            string
		avg, pk, decl float64
	}{
		{"A1", 128, 134, 128},
		{"A2", 196, 199, 196},
		{"A3", 384, 391, 384},
		{"V1", 111, 119, 111},
		{"V2", 246, 261, 246},
		{"V3", 362, 641, 473},
		{"V4", 734, 1190, 914},
		{"V5", 1421, 2382, 1852},
		{"V6", 2728, 4447, 3746},
	}
	c := DramaShow()
	for _, tc := range cases {
		tr := c.TrackByID(tc.id)
		if tr == nil {
			t.Fatalf("track %s missing", tc.id)
		}
		if tr.AvgBitrate != Kbps(tc.avg) || tr.PeakBitrate != Kbps(tc.pk) || tr.DeclaredBitrate != Kbps(tc.decl) {
			t.Errorf("%s: got avg=%v peak=%v decl=%v, want %v/%v/%v",
				tc.id, tr.AvgBitrate, tr.PeakBitrate, tr.DeclaredBitrate,
				Kbps(tc.avg), Kbps(tc.pk), Kbps(tc.decl))
		}
	}
}

func TestTable2AllCombos(t *testing.T) {
	c := DramaShow()
	combos := HAll(c)
	if len(combos) != 18 {
		t.Fatalf("got %d combos, want 18", len(combos))
	}
	// The exact Table 2 rows in the paper's (peak-sorted) order.
	want := []struct {
		name    string
		avg, pk float64 // Kbps
	}{
		{"V1+A1", 239, 253}, {"V1+A2", 307, 318}, {"V2+A1", 374, 395},
		{"V2+A2", 442, 460}, {"V1+A3", 495, 510}, {"V2+A3", 630, 652},
		{"V3+A1", 490, 775}, {"V3+A2", 558, 840}, {"V3+A3", 746, 1032},
		{"V4+A1", 862, 1324}, {"V4+A2", 930, 1389}, {"V4+A3", 1118, 1581},
		{"V5+A1", 1549, 2516}, {"V5+A2", 1617, 2581}, {"V5+A3", 1805, 2773},
		{"V6+A1", 2856, 4581}, {"V6+A2", 2924, 4646}, {"V6+A3", 3112, 4838},
	}
	for i, w := range want {
		got := combos[i]
		if got.String() != w.name {
			t.Errorf("row %d: got %s, want %s", i, got, w.name)
			continue
		}
		if got.AvgBitrate() != Kbps(w.avg) {
			t.Errorf("%s: avg %v, want %v", w.name, got.AvgBitrate(), Kbps(w.avg))
		}
		if got.PeakBitrate() != Kbps(w.pk) {
			t.Errorf("%s: peak %v, want %v", w.name, got.PeakBitrate(), Kbps(w.pk))
		}
	}
}

func TestTable3SubsetCombos(t *testing.T) {
	c := DramaShow()
	combos := HSub(c)
	want := []struct {
		name    string
		avg, pk float64
	}{
		{"V1+A1", 239, 253}, {"V2+A1", 374, 395}, {"V3+A2", 558, 840},
		{"V4+A2", 930, 1389}, {"V5+A3", 1805, 2773}, {"V6+A3", 3112, 4838},
	}
	if len(combos) != len(want) {
		t.Fatalf("got %d combos, want %d", len(combos), len(want))
	}
	for i, w := range want {
		got := combos[i]
		if got.String() != w.name || got.AvgBitrate() != Kbps(w.avg) || got.PeakBitrate() != Kbps(w.pk) {
			t.Errorf("row %d: got %s avg=%v pk=%v, want %s/%v/%v",
				i, got, got.AvgBitrate(), got.PeakBitrate(), w.name, Kbps(w.avg), Kbps(w.pk))
		}
	}
}

func TestChunkSizesMatchAverageBitrate(t *testing.T) {
	c := DramaShow()
	for _, tr := range c.Tracks() {
		total := c.TrackBytes(tr)
		realized := float64(total) * 8 / c.Duration.Seconds()
		want := float64(tr.AvgBitrate)
		if rel := math.Abs(realized-want) / want; rel > 0.05 {
			t.Errorf("%s: realized avg %.0f bps vs declared %.0f (%.1f%% off)",
				tr.ID, realized, want, rel*100)
		}
	}
}

func TestChunkSizesRespectPeak(t *testing.T) {
	c := DramaShow()
	for _, tr := range c.Tracks() {
		for i := 0; i < c.NumChunks(); i++ {
			sz := c.ChunkSize(tr, i)
			dur := c.ChunkDurationAt(i).Seconds()
			if rate := float64(sz) * 8 / dur; rate > float64(tr.PeakBitrate)*1.001 {
				t.Errorf("%s chunk %d: rate %.0f exceeds peak %d", tr.ID, i, rate, tr.PeakBitrate)
			}
		}
	}
}

func TestChunkSizesDeterministic(t *testing.T) {
	a, b := DramaShow(), DramaShow()
	for _, tr := range a.Tracks() {
		for i := 0; i < a.NumChunks(); i++ {
			if a.ChunkSize(tr, i) != b.ChunkSize(a.TrackByID(tr.ID), i) {
				t.Fatalf("chunk sizes not deterministic at %s[%d]", tr.ID, i)
			}
		}
	}
}

func TestNumChunksAndLastChunk(t *testing.T) {
	c := MustNewContent(ContentSpec{
		Name:          "odd",
		Duration:      17 * time.Second,
		ChunkDuration: 5 * time.Second,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   DramaAudioLadder(),
	})
	if got := c.NumChunks(); got != 4 {
		t.Fatalf("NumChunks = %d, want 4", got)
	}
	if got := c.ChunkDurationAt(3); got != 2*time.Second {
		t.Errorf("last chunk duration = %v, want 2s", got)
	}
	if got := c.ChunkDurationAt(0); got != 5*time.Second {
		t.Errorf("first chunk duration = %v, want 5s", got)
	}
	if got := c.ChunkDurationAt(4); got != 0 {
		t.Errorf("out-of-range chunk duration = %v, want 0", got)
	}
}

func TestLadderValidateRejectsBadLadders(t *testing.T) {
	if err := (Ladder{}).Validate(); err == nil {
		t.Error("empty ladder should fail")
	}
	mixed := Ladder{
		{ID: "V1", Type: Video, DeclaredBitrate: 1},
		{ID: "A1", Type: Audio, DeclaredBitrate: 2},
	}
	if err := mixed.Validate(); err == nil {
		t.Error("mixed-type ladder should fail")
	}
	unsorted := Ladder{
		{ID: "V2", Type: Video, DeclaredBitrate: 10},
		{ID: "V1", Type: Video, DeclaredBitrate: 5},
	}
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted ladder should fail")
	}
}

func TestPairCombosMonotone(t *testing.T) {
	// Property: for any ladder sizes, PairCombos is monotone non-decreasing
	// in both the video and the audio index.
	f := func(nv, na uint8) bool {
		m, n := int(nv)%8+1, int(na)%8+1
		video := make(Ladder, m)
		for i := range video {
			video[i] = &Track{ID: "V", Type: Video, DeclaredBitrate: Bps(100 * (i + 1))}
		}
		audio := make(Ladder, n)
		for i := range audio {
			audio[i] = &Track{ID: "A", Type: Audio, DeclaredBitrate: Bps(10 * (i + 1))}
		}
		combos := PairCombos(video, audio)
		if len(combos) != m {
			return false
		}
		prev := -1
		for i, cb := range combos {
			if video.Index(cb.Video) != i {
				return false
			}
			j := audio.Index(cb.Audio)
			if j < prev {
				return false
			}
			prev = j
		}
		// Highest video must pair with highest audio, and (when there is
		// more than one video) lowest with lowest.
		if combos[m-1].Audio != audio[n-1] {
			return false
		}
		return m == 1 || combos[0].Audio == audio[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllCombosSortedByPeak(t *testing.T) {
	f := func(seed int64) bool {
		c := DramaShow()
		combos := AllCombos(c.VideoTracks, c.AudioTracks)
		for i := 1; i < len(combos); i++ {
			if combos[i-1].PeakBitrate() > combos[i].PeakBitrate() {
				return false
			}
		}
		return len(combos) == len(c.VideoTracks)*len(c.AudioTracks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestBpsHelpers(t *testing.T) {
	if Kbps(128) != 128000 {
		t.Errorf("Kbps(128) = %d", Kbps(128))
	}
	if got := Bps(1500000).String(); got != "1.50Mbps" {
		t.Errorf("String() = %q", got)
	}
	if got := Bps(384000).String(); got != "384Kbps" {
		t.Errorf("String() = %q", got)
	}
	if got := Bps(500).String(); got != "500bps" {
		t.Errorf("String() = %q", got)
	}
	if got := Bps(128000).Kbps(); got != 128 {
		t.Errorf("Kbps() = %v", got)
	}
}

func TestContentValidation(t *testing.T) {
	_, err := NewContent(ContentSpec{
		Name:          "bad",
		Duration:      time.Second,
		ChunkDuration: 5 * time.Second,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   DramaAudioLadder(),
	})
	if err == nil {
		t.Error("duration shorter than chunk should fail")
	}
	_, err = NewContent(ContentSpec{
		Name:          "bad2",
		Duration:      time.Minute,
		ChunkDuration: 0,
		VideoTracks:   DramaVideoLadder(),
		AudioTracks:   DramaAudioLadder(),
	})
	if err == nil {
		t.Error("zero chunk duration should fail")
	}
}

func TestTrackLookups(t *testing.T) {
	c := DramaShow()
	if c.TrackByID("V3") == nil || c.TrackByID("A2") == nil {
		t.Fatal("lookup failed")
	}
	if c.TrackByID("X9") != nil {
		t.Fatal("bogus ID found")
	}
	if got := c.VideoTracks.Index(c.TrackByID("V3")); got != 2 {
		t.Errorf("Index(V3) = %d, want 2", got)
	}
	if got := c.VideoTracks.Index(&Track{}); got != -1 {
		t.Errorf("Index(unknown) = %d, want -1", got)
	}
	ids := c.AudioTracks.IDs()
	if len(ids) != 3 || ids[0] != "A1" || ids[2] != "A3" {
		t.Errorf("IDs() = %v", ids)
	}
}

func TestComboStringNil(t *testing.T) {
	var c Combo
	if got := c.String(); got != "?+?" {
		t.Errorf("String() = %q", got)
	}
}

func TestContentPresetsValid(t *testing.T) {
	for _, c := range []*Content{MusicShow(), ActionMovie(), DramaShowLowAudio(), DramaShowHighAudio()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	ms := MusicShow()
	if len(ms.AudioTracks) != 4 || ms.AudioTracks[3].DeclaredBitrate != Kbps(768) {
		t.Errorf("music show audio ladder wrong: %v", ms.AudioTracks.IDs())
	}
	// The §1 point: top audio (768) exceeds the three lowest video rungs'
	// declared bitrates (111, 246, 473).
	if ms.AudioTracks[3].DeclaredBitrate <= ms.VideoTracks[2].DeclaredBitrate {
		t.Error("Atmos-class audio should exceed V3's declared bitrate")
	}
}

func TestActionMovieSpikier(t *testing.T) {
	drama, action := DramaShow(), ActionMovie()
	variance := func(c *Content, id string) float64 {
		tr := c.TrackByID(id)
		n := c.NumChunks()
		var mean float64
		for i := 0; i < n; i++ {
			mean += float64(c.ChunkSize(tr, i))
		}
		mean /= float64(n)
		var v float64
		for i := 0; i < n; i++ {
			d := float64(c.ChunkSize(tr, i)) - mean
			v += d * d / (mean * mean)
		}
		return v / float64(n)
	}
	if variance(action, "V4") <= variance(drama, "V4") {
		t.Errorf("action movie V4 chunk variance %.4f <= drama %.4f",
			variance(action, "V4"), variance(drama, "V4"))
	}
}

func TestNamedResolvesEveryName(t *testing.T) {
	for _, name := range Names() {
		if c, err := Named(name); err != nil || c == nil {
			t.Errorf("Named(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := Named("bogus"); err == nil {
		t.Error("Named(bogus) should fail")
	}
}
