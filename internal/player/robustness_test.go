package player

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// runFaulted runs a fixed-combo session with the given plan and policy on
// an ample fixed link.
func runFaulted(t *testing.T, c *media.Content, plan *faults.Plan, pol *faults.Policy) *Result {
	t.Helper()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(10000)))
	res, err := Run(link, Config{
		Content:    c,
		Model:      &fixedJoint{combo: lowestCombo(c)},
		FaultPlan:  plan,
		Robustness: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFaultWithoutPolicyAborts(t *testing.T) {
	c := media.DramaShow()
	plan := &faults.Plan{Seed: 1, Rate: 1, Kinds: []faults.Kind{faults.HTTP404}}
	res := runFaulted(t, c, plan, nil)
	if !res.Aborted || res.Ended {
		t.Fatalf("rate-1 faults with no policy must abort: Aborted=%v Ended=%v", res.Aborted, res.Ended)
	}
	if res.AbortReason == "" {
		t.Error("abort reason missing")
	}
	if len(res.Faults) != 1 {
		t.Errorf("fail-fast session recorded %d faults, want exactly 1", len(res.Faults))
	}
}

func TestPolicyRetriesThroughTransientFaults(t *testing.T) {
	c := media.DramaShow()
	plan := &faults.Plan{Seed: 7, Rate: 0.2}
	pol := faults.DefaultPolicy()
	res := runFaulted(t, c, plan, &pol)
	if !res.Ended || res.Aborted {
		t.Fatalf("robust session did not finish: Ended=%v Aborted=%v (%s)", res.Ended, res.Aborted, res.AbortReason)
	}
	if len(res.Faults) == 0 || res.Retries == 0 {
		t.Fatalf("20%% fault rate produced faults=%d retries=%d, want both > 0", len(res.Faults), res.Retries)
	}
	// Every chunk position of both types must still be present.
	for _, typ := range []media.Type{media.Video, media.Audio} {
		got := map[int]bool{}
		for _, ch := range res.ChunksOf(typ) {
			got[ch.Index] = true
		}
		for i := 0; i < c.NumChunks(); i++ {
			if !got[i] {
				t.Fatalf("%s chunk %d never completed", typ, i)
			}
		}
	}
}

func TestTimeoutFaultDetectedByRequestTimeout(t *testing.T) {
	c := media.DramaShow()
	plan := &faults.Plan{Seed: 3, Rate: 1, Kinds: []faults.Kind{faults.Timeout}, MaxPersistence: 1}
	pol := faults.DefaultPolicy()
	pol.RequestTimeout = time.Second
	res := runFaulted(t, c, plan, &pol)
	if !res.Ended || res.Aborted {
		t.Fatalf("session did not finish: Ended=%v Aborted=%v (%s)", res.Ended, res.Aborted, res.AbortReason)
	}
	if len(res.Faults) == 0 {
		t.Fatal("no timeout faults recorded")
	}
	for _, f := range res.Faults {
		if f.Kind != faults.Timeout {
			t.Fatalf("unexpected fault kind %v", f.Kind)
		}
	}
}

func TestPersistentTrackFailureFailsOver(t *testing.T) {
	c := media.DramaShow()
	plan := &faults.Plan{
		Seed: 5, Rate: 1,
		Kinds:          []faults.Kind{faults.HTTP404},
		Targets:        []string{c.AudioTracks[0].ID},
		MaxPersistence: -1, // the track is simply gone
	}
	pol := faults.DefaultPolicy()
	res := runFaulted(t, c, plan, &pol)
	if !res.Ended || res.Aborted {
		t.Fatalf("session did not finish: Ended=%v Aborted=%v (%s)", res.Ended, res.Aborted, res.AbortReason)
	}
	if len(res.Failovers) == 0 {
		t.Fatal("no failover recorded for a permanently dead track")
	}
	dead := c.AudioTracks[0].ID
	for _, ch := range res.Chunks {
		if ch.Track.ID == dead {
			t.Fatalf("chunk %d completed on the dead track %s", ch.Index, dead)
		}
	}
}

func TestBlackoutWindowTriggersTimeoutsAndRecovery(t *testing.T) {
	c := media.DramaShow()
	plan := &faults.Plan{
		Seed:      2,
		Blackouts: []faults.Window{{Start: 10 * time.Second, End: 40 * time.Second}},
	}
	pol := faults.DefaultPolicy()
	pol.RequestTimeout = 2 * time.Second
	res := runFaulted(t, c, plan, &pol)
	if !res.Ended || res.Aborted {
		t.Fatalf("session did not survive the blackout: Ended=%v Aborted=%v (%s)", res.Ended, res.Aborted, res.AbortReason)
	}
	sawTimeout := false
	for _, f := range res.Faults {
		if f.Kind == faults.Timeout {
			sawTimeout = true
			break
		}
	}
	if !sawTimeout {
		t.Fatal("a 30s blackout with a 2s request timeout produced no timeout faults")
	}
}

// faultSummary flattens the robustness-relevant outcome into a comparable
// string (track identity by ID, not pointer).
func faultSummary(res *Result) string {
	s := fmt.Sprintf("ended=%v aborted=%v endedAt=%v startup=%v stalls=%d chunks=%d retries=%d wasted=%d\n",
		res.Ended, res.Aborted, res.EndedAt, res.StartupDelay, len(res.Stalls), len(res.Chunks), res.Retries, res.WastedFaultBytes())
	for _, f := range res.Faults {
		s += fmt.Sprintf("fault %d %s %s %s a%d @%v w%d\n", f.Index, f.Type, f.Track.ID, f.Kind, f.Attempt, f.At, f.WastedBytes)
	}
	for _, f := range res.Failovers {
		s += fmt.Sprintf("failover %d %s %s->%s @%v\n", f.Index, f.Type, f.From.ID, f.To.ID, f.At)
	}
	return s
}

func TestFaultInjectionDeterministic(t *testing.T) {
	c := media.DramaShow()
	run := func() string {
		plan := &faults.Plan{Seed: 11, Rate: 0.3}
		pol := faults.DefaultPolicy()
		return faultSummary(runFaulted(t, c, plan, &pol))
	}
	first := run()
	for i := 0; i < 2; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i+2, got, first)
		}
	}
}

func TestMuxedModeRejectsFaultPlan(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(10000)))
	_, err := Run(link, Config{
		Content:   c,
		Model:     &fixedJoint{combo: lowestCombo(c)},
		Muxed:     true,
		FaultPlan: &faults.Plan{Seed: 1, Rate: 0.1},
	})
	if err == nil {
		t.Fatal("muxed mode accepted a fault plan")
	}
}

// A Start that refuses its configuration leaves the links and the engine
// as it found them: the fault plan's blackout windows are applied only
// once every check has passed, and nothing is scheduled. The refusals
// below cover the checks that need the model's kind, the content's
// timelines and the live configuration.
func TestRefusedStartLeavesLinksUntouched(t *testing.T) {
	c := media.DramaShow()
	plan := &faults.Plan{Blackouts: []faults.Window{{Start: 10 * time.Second, End: 20 * time.Second}}}
	pol := faults.DefaultPolicy()
	h1 := netsim.DefaultTransport(netsim.H1)
	for name, cfg := range map[string]Config{
		"audio resets on strict pairing": {Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, AudioResets: []time.Duration{5 * time.Second}},
		"joint on misaligned timelines":  {Content: shapedContent(t), Model: &fixedJoint{combo: lowestCombo(c)}, Transport: &h1},
		"invalid live target":            {Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, Robustness: &pol, Live: &LiveConfig{LatencyTarget: -time.Second}},
	} {
		cfg.FaultPlan = plan
		eng := netsim.NewEngine()
		video, audio := netsim.NewLink(eng, trace.Fixed(media.Kbps(5000))), netsim.NewLink(eng, trace.Fixed(media.Kbps(500)))
		if _, err := new(Pool).Start(video, audio, cfg); err == nil {
			t.Fatalf("%s: Start accepted the configuration", name)
		}
		if video.RateAt(15*time.Second) == 0 || audio.RateAt(15*time.Second) == 0 {
			t.Errorf("%s: the refused Start left its blackout on the links", name)
		}
		if n := eng.Pending(); n > 0 {
			t.Errorf("%s: the refused Start left %d events scheduled", name, n)
		}
	}
}

func TestDeadlineAbortSetsAborted(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(0))
	res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ended || !res.Aborted || res.AbortReason == "" {
		t.Fatalf("dead link session: Ended=%v Aborted=%v reason=%q", res.Ended, res.Aborted, res.AbortReason)
	}
}

// An audio reset that lands while the audio stream waits out a retry
// backoff voids the pending retry; the reset must then restart the stream,
// not leave it marked busy with nothing left to finish it. Frequent resets
// against a 404-heavy plan put several of them inside a backoff, for both
// stream-loop schedulers (per-type, and joint with a skew bound).
func TestAudioResetDuringBackoffRestartsStream(t *testing.T) {
	c := media.DramaShow()
	var resets []time.Duration
	for at := 7 * time.Second; at < c.Duration; at += 7 * time.Second {
		resets = append(resets, at)
	}
	pol := faults.DefaultPolicy()
	for name, cfg := range map[string]Config{
		"per-type":    {Model: &fixedPerType{video: c.VideoTracks[0], audio: c.AudioTracks[0]}},
		"sync-window": {Model: &fixedJoint{combo: lowestCombo(c)}, SyncWindow: 1},
	} {
		cfg.Content = c
		cfg.AudioResets = resets
		cfg.FaultPlan = &faults.Plan{Seed: 3, Rate: 0.3, Kinds: []faults.Kind{faults.HTTP404}}
		cfg.Robustness = &pol
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fixed(media.Kbps(5000)))
		link.RTT = 100 * time.Millisecond
		res, err := Run(link, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ended || res.Aborted {
			t.Errorf("%s: session did not finish (aborted=%v: %s)", name, res.Aborted, res.AbortReason)
		}
	}
}

// TestSharedPlanAcrossConcurrentSessions: recorded sessions on separate
// goroutines may share one *faults.Plan (abrsim -compare does), and each
// records exactly the events it records when the sessions run serially.
func TestSharedPlanAcrossConcurrentSessions(t *testing.T) {
	c := media.DramaShow()
	plan := &faults.Plan{Seed: 7, Rate: 0.2}
	pol := faults.DefaultPolicy()
	combos := []media.Combo{
		lowestCombo(c),
		{Video: c.VideoTracks[len(c.VideoTracks)-1], Audio: c.AudioTracks[len(c.AudioTracks)-1]},
	}
	run := func(i int) ([]timeline.Event, error) {
		rec := timeline.New(i, "shared-plan")
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fixed(media.Kbps(10000)))
		_, err := Run(link, Config{
			Content:    c,
			Model:      &fixedJoint{combo: combos[i]},
			FaultPlan:  plan,
			Robustness: &pol,
			Recorder:   rec,
		})
		return rec.Events(), err
	}
	serial := make([][]timeline.Event, len(combos))
	for i := range combos {
		events, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		if countKind(events, timeline.FaultInjected) == 0 {
			t.Fatalf("session %d recorded no fault-injected events", i)
		}
		serial[i] = events
	}
	concurrent := make([][]timeline.Event, len(combos))
	errs := make([]error, len(combos))
	var wg sync.WaitGroup
	for i := range combos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for i := range combos {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(concurrent[i], serial[i]) {
			t.Errorf("session %d: events differ between concurrent and serial runs", i)
		}
	}
}

func countKind(events []timeline.Event, kind timeline.Kind) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
