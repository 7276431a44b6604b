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

// dirtySpecs returns sessions that each leave a different kind of state on
// the engine, uplink and Pool that Play reuses: faults retried under the
// default policy, lossy HTTP/1.1 connections, a live session, muxed
// objects, and a recorder on the link and the session. Each call makes new
// recorders. The last entry is a clean session with none of these.
func dirtySpecs() []Spec {
	pol := faults.DefaultPolicy()
	h1 := netsim.DefaultTransport(netsim.H1)
	h1.LossRate, h1.Seed = 0.05, 5
	profile := trace.Fig3VaryingAvg600()
	return []Spec{
		{Profile: profile, Player: BestPractice, Robustness: &pol, Faults: &faults.Plan{
			Seed: 3, Rate: 0.2, Kinds: faults.AllKinds(),
			Blackouts: []faults.Window{{Start: 20 * time.Second, End: 26 * time.Second}},
		}},
		{Profile: profile, Player: DashJS, RTT: 40 * time.Millisecond, Transport: &h1},
		{Profile: trace.Fixed(media.Kbps(3000)), Player: LLLoLP, Live: &player.LiveConfig{PartTarget: time.Second}},
		{Profile: profile, Player: BolaJoint, Muxed: true},
		{Profile: profile, Player: Shaka, Recorder: timeline.New(0, "s0 shaka"), KeepTimeline: true},
		{Profile: profile, Player: BestPractice},
	}
}

// played is what a session leaves for its caller to read.
type played struct {
	res     *player.Result
	metrics qoe.Metrics
	events  []timeline.Event
}

// playFresh runs spec through player.Run on a new engine and link: the
// session Play must reproduce on the state it reuses.
func playFresh(t *testing.T, spec Spec) played {
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

// playReused runs spec through Play.
func playReused(spec Spec) (played, error) {
	s, err := Play(spec)
	if err != nil {
		return played{}, err
	}
	return played{s.Result, s.Metrics, spec.Recorder.Events()}, nil
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
// timeline, stalls, faults, transport and live. The later Plays are the
// dirty sessions on other links, so what they write differs from what
// the kept Results hold.
func TestPlayResultOutlivesLaterPlays(t *testing.T) {
	specs := dirtySpecs()
	type keptResult struct {
		first, snapshot played
		js              []byte
	}
	var kept []keptResult
	var stalls, faults, timeline, transport, live bool
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
		faults = faults || len(r.Faults) > 0
		timeline = timeline || len(r.Timeline) > 0
		transport = transport || r.Transport != nil
		live = live || r.Live != nil
	}
	if !stalls || !faults || !timeline || !transport || !live {
		t.Fatalf("the kept Results hold stalls %v, faults %v, a timeline %v, transport %v, live %v: want all",
			stalls, faults, timeline, transport, live)
	}
	for i := range 20 {
		spec := dirtySpecs()[i%len(specs)]
		spec.Profile = trace.Fixed(media.Kbps(float64(700 + 150*i)))
		if _, err := Play(spec); err != nil {
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
