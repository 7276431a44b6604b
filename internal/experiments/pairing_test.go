package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/trace"
)

// The reference pairings below are the map-based derivations that
// player.Result.ByIndex replaced, kept verbatim as the oracle: each built
// its own per-index maps from Result.Chunks, the last completed download
// of an index winning.

func refCombosSelected(r *player.Result) []media.Combo {
	video := map[int]*media.Track{}
	audio := map[int]*media.Track{}
	maxIdx := -1
	for _, c := range r.Chunks {
		if c.Type == media.Video {
			video[c.Index] = c.Track
		} else {
			audio[c.Index] = c.Track
		}
		if c.Index > maxIdx {
			maxIdx = c.Index
		}
	}
	var out []media.Combo
	seen := map[string]bool{}
	for i := 0; i <= maxIdx; i++ {
		v, a := video[i], audio[i]
		if v == nil || a == nil {
			continue
		}
		cb := media.Combo{Video: v, Audio: a}
		if !seen[cb.String()] {
			seen[cb.String()] = true
			out = append(out, cb)
		}
	}
	return out
}

func refDominantCombo(res *player.Result) media.Combo {
	count := map[string]int{}
	rep := map[string]media.Combo{}
	video := map[int]*media.Track{}
	audio := map[int]*media.Track{}
	for _, ch := range res.Chunks {
		if ch.Type == media.Video {
			video[ch.Index] = ch.Track
		} else {
			audio[ch.Index] = ch.Track
		}
	}
	for i, v := range video {
		a := audio[i]
		if a == nil {
			continue
		}
		cb := media.Combo{Video: v, Audio: a}
		count[cb.String()]++
		rep[cb.String()] = cb
	}
	var best media.Combo
	bestN := -1
	bestKey := ""
	for k, n := range count {
		if n > bestN || (n == bestN && k < bestKey) {
			bestN = n
			bestKey = k
			best = rep[k]
		}
	}
	return best
}

// refPairing is qoe.Compute's pairing section (both branches) with the
// score assembled from the rest of m, which does not depend on pairing.
func refPairing(res *player.Result, content *media.Content, allowed []media.Combo, w qoe.Weights, m qoe.Metrics) qoe.Metrics {
	utility := func(l media.Ladder, t *media.Track) float64 {
		return math.Log(float64(t.AvgBitrate) / float64(l[0].AvgBitrate))
	}
	comboAllowed := func(v, a *media.Track) bool {
		for _, c := range allowed {
			if c.Video.ID == v.ID && c.Audio.ID == a.ID {
				return true
			}
		}
		return false
	}
	m.AvgVideoQuality, m.AvgAudioQuality, m.OffManifest = 0, 0, 0
	var seconds, switchMag float64
	if content.Aligned() {
		var vQual, aQual float64
		var prev [2]*media.Track
		byIdx := map[int][2]*media.Track{}
		maxIdx := -1
		for _, ch := range res.Chunks {
			e := byIdx[ch.Index]
			e[ch.Type] = ch.Track
			byIdx[ch.Index] = e
			if ch.Index > maxIdx {
				maxIdx = ch.Index
			}
		}
		for i := 0; i <= maxIdx; i++ {
			pair := byIdx[i]
			v, a := pair[media.Video], pair[media.Audio]
			if v == nil || a == nil {
				continue
			}
			d := content.ChunkDurationAt(i).Seconds()
			vQual += utility(content.VideoTracks, v) * d
			aQual += utility(content.AudioTracks, a) * d
			seconds += d
			if prev[media.Video] != nil {
				switchMag += math.Abs(utility(content.VideoTracks, v) - utility(content.VideoTracks, prev[media.Video]))
				switchMag += math.Abs(utility(content.AudioTracks, a) - utility(content.AudioTracks, prev[media.Audio]))
			}
			prev = pair
			if len(allowed) > 0 && !comboAllowed(v, a) {
				m.OffManifest++
			}
		}
		if seconds > 0 {
			m.AvgVideoQuality = vQual / seconds
			m.AvgAudioQuality = aQual / seconds
		}
	} else {
		sel := [2]map[int]*media.Track{{}, {}}
		maxIdx := [2]int{-1, -1}
		for _, ch := range res.Chunks {
			sel[ch.Type][ch.Index] = ch.Track
			if ch.Index > maxIdx[ch.Type] {
				maxIdx[ch.Type] = ch.Index
			}
		}
		for _, t := range []media.Type{media.Video, media.Audio} {
			ladder := content.VideoTracks
			if t == media.Audio {
				ladder = content.AudioTracks
			}
			var qual, secs float64
			var prev *media.Track
			for i := 0; i <= maxIdx[t]; i++ {
				tr := sel[t][i]
				if tr == nil {
					continue
				}
				d := content.ChunkDurationOf(t, i).Seconds()
				qual += utility(ladder, tr) * d
				secs += d
				if prev != nil {
					switchMag += math.Abs(utility(ladder, tr) - utility(ladder, prev))
				}
				prev = tr
			}
			if secs > 0 {
				if t == media.Video {
					m.AvgVideoQuality = qual / secs
					seconds = secs
				} else {
					m.AvgAudioQuality = qual / secs
				}
			}
		}
		if len(allowed) > 0 {
			for i := 0; i <= maxIdx[media.Video]; i++ {
				v := sel[media.Video][i]
				if v == nil {
					continue
				}
				mid := content.ChunkStartOf(media.Video, i) + content.ChunkDurationOf(media.Video, i)/2
				a := sel[media.Audio][content.ChunkIndexAt(media.Audio, mid)]
				if a != nil && !comboAllowed(v, a) {
					m.OffManifest++
				}
			}
		}
	}
	m.Score = m.AvgVideoQuality + w.AudioWeight*m.AvgAudioQuality -
		w.SwitchPenalty*switchMag/math.Max(seconds/60, 1) -
		w.RebufferPenalty*m.RebufferTime.Seconds()/math.Max(seconds, 1)*60 -
		w.StartupPenalty*m.StartupDelay.Seconds()/math.Max(seconds, 1)*60
	return m
}

// pairingCase is one session of the differential test, with a check that
// its record really has the pairing edge it is there to reach.
type pairingCase struct {
	name    string
	content *media.Content
	res     *player.Result
	edge    func(sel [2][]*media.Track) bool
}

// misalignedContent is a 60 s title whose variable video timeline crosses
// its uniform 6 s audio timeline.
func misalignedContent(t *testing.T) *media.Content {
	t.Helper()
	sec := func(n int) time.Duration { return time.Duration(n) * time.Second }
	c, err := media.NewContent(media.ContentSpec{
		Name:          "misaligned",
		Duration:      60 * time.Second,
		ChunkDuration: 5 * time.Second,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.DefaultChunkModel(),
		VideoChunks:   []time.Duration{sec(5), sec(7), sec(8), sec(6), sec(4), sec(7), sec(5), sec(8), sec(6), sec(4)},
		AudioChunks:   []time.Duration{sec(6), sec(6), sec(6), sec(6), sec(6), sec(6), sec(6), sec(6), sec(6), sec(6)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refetchedOther reports whether some chunk index of res completed twice
// with different tracks, so "last wins" decides its pairing.
func refetchedOther(res *player.Result) bool {
	first := map[[2]int]*media.Track{}
	for _, ch := range res.Chunks {
		k := [2]int{int(ch.Type), ch.Index}
		if tr, ok := first[k]; ok && tr != ch.Track {
			return true
		}
		first[k] = ch.Track
	}
	return false
}

func pairingCases(t *testing.T) []pairingCase {
	t.Helper()
	lang, err := LanguageSwitch()
	if err != nil {
		t.Fatal(err)
	}
	multi := media.MultiLanguageShow()
	drama := media.DramaShow()
	live, err := core.Play(core.Spec{Content: drama, Profile: trace.Fixed(media.Kbps(3000)), Player: core.BestPractice, Live: LiveConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// Per-type dash.js cut by a deadline, with audio starved on a 60 Kbps
	// link of its own so that video runs indices ahead of the audio
	// downloaded.
	cut := func(c *media.Content, deadline time.Duration) *player.Result {
		t.Helper()
		model, _, err := core.BuildModel(core.DashJS, c, core.ManifestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng := netsim.NewEngine()
		res, err := player.RunSplit(netsim.NewLink(eng, trace.Fixed(media.Kbps(3000))), netsim.NewLink(eng, trace.Fixed(media.Kbps(60))),
			player.Config{Content: c, Model: model, Deadline: deadline})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	misaligned := misalignedContent(t)

	return []pairingCase{
		{"audio reset", multi, lang.Demuxed.Result,
			func([2][]*media.Track) bool { return refetchedOther(lang.Demuxed.Result) }},
		{"muxed audio reset", multi, lang.Muxed.Result,
			func([2][]*media.Track) bool { return refetchedOther(lang.Muxed.Result) }},
		{"live join", drama, live.Result,
			func(sel [2][]*media.Track) bool {
				return len(sel[media.Video]) > 0 && sel[media.Video][0] == nil && sel[media.Audio][0] == nil
			}},
		{"aborted", drama, cut(drama, 40*time.Second),
			func(sel [2][]*media.Track) bool { return len(sel[media.Video]) > len(sel[media.Audio]) }},
		{"misaligned aborted", misaligned, cut(misaligned, 30*time.Second),
			func(sel [2][]*media.Track) bool {
				for i, v := range sel[media.Video] {
					mid := misaligned.ChunkStartOf(media.Video, i) + misaligned.ChunkDurationOf(media.Video, i)/2
					if v != nil && misaligned.ChunkIndexAt(media.Audio, mid) >= len(sel[media.Audio]) {
						return true
					}
				}
				return false
			}},
	}
}

// TestPairingMatchesReference: every reading of the chunk pairing —
// CombosSelected, DominantCombo and both of qoe.Compute's branches —
// agrees with the map-based reference on records with refetched indices,
// a late first index, video indices without audio, muxed packaging and a
// misaligned timeline whose audio midpoint lands past the audio
// downloaded.
func TestPairingMatchesReference(t *testing.T) {
	offManifest := 0
	for _, c := range pairingCases(t) {
		if !c.edge(c.res.ByIndex()) {
			t.Fatalf("%s: record lacks the edge it is there to test", c.name)
		}
		if got, want := c.res.CombosSelected(), refCombosSelected(c.res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CombosSelected = %v, reference %v", c.name, got, want)
		}
		if got, want := DominantCombo(c.res), refDominantCombo(c.res); got != want {
			t.Errorf("%s: DominantCombo = %v, reference %v", c.name, got, want)
		}
		allowed := media.HSub(c.content)
		w := qoe.DefaultWeights()
		got := qoe.Compute(c.res, c.content, allowed, w)
		if want := refPairing(c.res, c.content, allowed, w, got); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Compute = %+v\nreference   %+v", c.name, got, want)
		}
		offManifest += got.OffManifest
	}
	if offManifest == 0 {
		t.Error("no session paired off the manifest: the off-manifest count went untested")
	}
}
