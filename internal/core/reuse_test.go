package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// dirtySpec is a Play spec with the audio resets its session schedules,
// which a Spec cannot carry: playReused runs a spec with resets through
// Play's reused state and Pool.Run, as Play would run it with them.
type dirtySpec struct {
	Spec
	audioResets []time.Duration
}

// dirtySpecs returns sessions that each leave a different kind of state on
// the engine, uplink and Pool that Play reuses: faults retried under the
// default policy, lossy HTTP/1.1 connections, a live session, muxed
// objects, a recorder on the link and the session, chunks abandoned on a
// collapsing link, audio resets on strictly paired muxed objects, and
// failover from a dead audio track. Each call makes new recorders. The
// last entry is a clean session with none of these.
func dirtySpecs() []dirtySpec {
	pol := faults.DefaultPolicy()
	h1 := netsim.DefaultTransport(netsim.H1)
	h1.LossRate, h1.Seed = 0.05, 5
	profile := trace.Fig3VaryingAvg600()
	return []dirtySpec{
		{Spec: Spec{Profile: profile, Player: BestPractice, Robustness: &pol, Faults: &faults.Plan{
			Seed: 3, Rate: 0.2, Kinds: faults.AllKinds(),
			Blackouts: []faults.Window{{Start: 20 * time.Second, End: 26 * time.Second}},
		}}},
		{Spec: Spec{Profile: profile, Player: DashJS, RTT: 40 * time.Millisecond, Transport: &h1}},
		{Spec: Spec{Profile: trace.Fixed(media.Kbps(3000)), Player: LLLoLP, Live: &player.LiveConfig{PartTarget: time.Second}}},
		{Spec: Spec{Profile: profile, Player: BolaJoint, Muxed: true}},
		{Spec: Spec{Profile: profile, Player: Shaka, Recorder: timeline.New(0, "s0 shaka"), KeepTimeline: true}},
		{Spec: Spec{Profile: collapsing(0), Player: BestPracticeAbandon}},
		{Spec: Spec{Profile: profile, Player: BolaJoint, Muxed: true}, audioResets: []time.Duration{20 * time.Second, 50 * time.Second}},
		{Spec: Spec{Profile: profile, Player: BestPractice, Robustness: &pol, Faults: &faults.Plan{
			Seed: 5, Rate: 1, Kinds: []faults.Kind{faults.HTTP404},
			Targets: []string{media.DramaShow().AudioTracks[0].ID}, MaxPersistence: -1,
		}}},
		{Spec: Spec{Profile: profile, Player: BestPractice}},
	}
}

// collapsing is a link that drops from 4 Mbps (plus i×150 kbps) to 250
// kbps at 40 s (plus i s) and recovers to 2 Mbps at 100 s: a doomed
// high-bitrate chunk that an abandoning model replaces.
func collapsing(i int) trace.Profile {
	return trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(float64(4000 + 150*i))},
		{At: 40*time.Second + time.Duration(i)*time.Second, Rate: media.Kbps(250)},
		{At: 100 * time.Second, Rate: media.Kbps(2000)},
	}, 0)
}

// played is what a session leaves for its caller to read.
type played struct {
	res     *player.Result
	metrics qoe.Metrics
	events  []timeline.Event
}

// playFresh runs spec through player.Run on a new engine and link: the
// session Play must reproduce on the state it reuses.
func playFresh(t *testing.T, spec dirtySpec) played {
	t.Helper()
	c := media.DramaShow()
	model, allowed, err := BuildModel(spec.Player, c, spec.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(netsim.NewEngine(), spec.Profile)
	link.RTT = spec.RTT
	var rec *timeline.Recorder
	if spec.Recorder != nil {
		rec = timeline.New(spec.Recorder.Session(), spec.Recorder.Label())
		link.SetRecorder(rec, "link")
	}
	res, err := player.Run(link, player.Config{
		Content:      c,
		Model:        model,
		Muxed:        spec.Muxed,
		AudioResets:  spec.audioResets,
		FaultPlan:    spec.Faults,
		Robustness:   spec.Robustness,
		Recorder:     rec,
		Transport:    spec.Transport,
		Live:         spec.Live,
		KeepTimeline: spec.KeepTimeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	return played{res, qoe.Compute(res, c, allowed, qoe.DefaultWeights()), rec.Events()}
}

// playReused runs spec through Play, or, when it schedules audio resets,
// through the state Play takes and the Pool.Run Play calls.
func playReused(spec dirtySpec) (played, error) {
	if len(spec.audioResets) == 0 {
		s, err := Play(spec.Spec)
		if err != nil {
			return played{}, err
		}
		return played{s.Result, s.Metrics, spec.Recorder.Events()}, nil
	}
	c := media.DramaShow()
	model, allowed, err := BuildModel(spec.Player, c, spec.Manifest)
	if err != nil {
		return played{}, err
	}
	st := takePlayState()
	st.eng.Reset()
	st.up.Reset(unbounded)
	link := st.up.NewLeaf(spec.Profile)
	res := new(player.Result)
	if err := st.pool.Run(link, link, player.Config{
		Content: c, Model: model, Muxed: spec.Muxed, AudioResets: spec.audioResets,
	}, res); err != nil {
		return played{}, err
	}
	metrics := st.qoe.Compute(res, c, allowed, qoe.DefaultWeights())
	putPlayState(st)
	return played{res, metrics, nil}, nil
}

// samePlayed reports how got differs from want, or "" when it does not.
func samePlayed(want, got played) string {
	switch {
	case !reflect.DeepEqual(want.res, got.res):
		return fmt.Sprintf("result\nwant %+v\ngot  %+v", want.res, got.res)
	case !reflect.DeepEqual(want.metrics, got.metrics):
		return fmt.Sprintf("metrics\nwant %+v\ngot  %+v", want.metrics, got.metrics)
	case !reflect.DeepEqual(want.events, got.events):
		return fmt.Sprintf("recorder events (%d, want %d)", len(got.events), len(want.events))
	}
	return ""
}

// TestPlayOnReusedStateMatchesFresh plays the dirty sessions and then a
// clean one, one after another, so each Play runs on the engine, uplink
// and Pool the one before it left. Each must equal the same session run on
// a new engine and link through player.Run: its Result, its metrics and
// its recorder's events.
func TestPlayOnReusedStateMatchesFresh(t *testing.T) {
	for round := range 2 {
		for i, spec := range dirtySpecs() {
			want := playFresh(t, spec)
			got, err := playReused(spec)
			if err != nil {
				t.Fatal(err)
			}
			if diff := samePlayed(want, got); diff != "" {
				t.Fatalf("round %d, spec %d (%s): Play changed the %s", round, i, spec.Player, diff)
			}
		}
	}
}

// TestPlayResultOutlivesLaterPlays: a Result Play returned is the
// caller's, though the Session object it was recorded on is the next
// Play's, so no later Play may write anything it holds. One Result of
// every dirty session is kept, and each must still equal, and encode as, a
// snapshot of it taken before twenty later Plays. Between them the kept
// Results hold every log and summary a Session hands over: chunks,
// timeline, stalls, abandonments, audio resets, faults, failovers,
// transport and live. The later Plays are the dirty sessions on other,
// collapsing links, so what they write differs from what the kept Results
// hold.
func TestPlayResultOutlivesLaterPlays(t *testing.T) {
	specs := dirtySpecs()
	type keptResult struct {
		first, snapshot played
		js              []byte
	}
	var kept []keptResult
	var stalls, abandons, resets, faults, failovers, timeline, transport, live bool
	for _, spec := range specs {
		first, err := playReused(spec)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(first.res)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, keptResult{first, playFresh(t, spec), js})
		r := first.res
		stalls = stalls || len(r.Stalls) > 0
		abandons = abandons || len(r.Abandonments) > 0
		resets = resets || len(r.AudioResets) > 0
		faults = faults || len(r.Faults) > 0
		failovers = failovers || len(r.Failovers) > 0
		timeline = timeline || len(r.Timeline) > 0
		transport = transport || r.Transport != nil
		live = live || r.Live != nil
	}
	if !stalls || !abandons || !resets || !faults || !failovers || !timeline || !transport || !live {
		t.Fatalf("the kept Results hold stalls %v, abandonments %v, audio resets %v, faults %v, failovers %v, a timeline %v, transport %v, live %v: want all",
			stalls, abandons, resets, faults, failovers, timeline, transport, live)
	}
	for i := range 20 {
		spec := dirtySpecs()[i%len(specs)]
		spec.Profile = collapsing(i + 1)
		if _, err := playReused(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range kept {
		if diff := samePlayed(k.snapshot, k.first); diff != "" {
			t.Fatalf("spec %d (%s): later Plays changed the kept %s", i, specs[i].Player, diff)
		}
		after, err := json.Marshal(k.first.res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(k.js, after) {
			t.Fatalf("spec %d (%s): later Plays changed the kept Result's JSON", i, specs[i].Player)
		}
	}
}

// TestParallelPlaysMatchSerial runs the dirty sessions on four goroutines
// at once, each in its own order, and requires the results of serial
// Plays: each goroutine takes its own state from the shared pool of them.
// Run under the race detector, it also checks that no state is shared.
func TestParallelPlaysMatchSerial(t *testing.T) {
	specs := dirtySpecs()
	want := make([]played, len(specs))
	for i, spec := range specs {
		p, err := playReused(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs := dirtySpecs()
			for k := range specs {
				i := (k + w) % len(specs)
				got, err := playReused(specs[i])
				if err == nil {
					if diff := samePlayed(want[i], got); diff != "" {
						err = fmt.Errorf("spec %d (%s): a parallel Play changed the %s", i, specs[i].Player, diff)
					}
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
