package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

func baseConfig(n int) Config {
	return Config{
		Sessions:      n,
		Mode:          cdnsim.Demuxed,
		UplinkProfile: trace.Fixed(media.Kbps(float64(6000 * n))),
		AccessProfile: trace.Fixed(media.Kbps(6000)),
		ArrivalSpread: 20 * time.Second,
		MissPenalty:   60 * time.Millisecond,
		Seed:          17,
	}
}

func fleetJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Report("drama-show").WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// Same config, same seed → byte-identical fleet reports.
func TestFleetDeterministic(t *testing.T) {
	cfg := baseConfig(4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	ja, jb := fleetJSON(t, a), fleetJSON(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed produced different fleet reports:\n%s\n---\n%s", ja, jb)
	}
	if a.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", a.Completed)
	}
}

// A solo fleet over a non-binding uplink behaves exactly like the same
// session on a standalone link: the Session API and two-tier topology must
// not perturb single-player results. The fleet session's flight recorder
// must hold the solo run's events, one for one, once the edge's cache
// outcomes (which a solo run has no edge to emit) are left out.
func TestFleetSoloMatchesStandaloneRun(t *testing.T) {
	content := media.DramaShow()
	access := trace.Fixed(media.Kbps(4000))

	res, err := Run(Config{
		Sessions:      1,
		Content:       content,
		Mode:          cdnsim.Demuxed,
		UplinkProfile: trace.Fixed(media.Kbps(1_000_000)),
		AccessProfile: access,
		Timeline:      true,
	})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	fs := res.Sessions[0]

	model, combos, err := core.BuildModel(core.BestPractice, content, core.ManifestOptions{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, access)
	rec := timeline.New(0, "solo")
	solo, err := player.RunSplit(link, link, player.Config{Content: content, Model: model, Recorder: rec})
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	sm := qoe.Compute(solo, content, combos, qoe.DefaultWeights())

	if fs.Metrics != sm {
		t.Errorf("fleet metrics differ from solo run:\nfleet: %+v\nsolo:  %+v", fs.Metrics, sm)
	}
	if fs.Ended != solo.Ended {
		t.Errorf("fleet session ended %v, solo run %v", fs.Ended, solo.Ended)
	}
	var got []timeline.Event
	for _, ev := range res.Recorders[0].Events() {
		if ev.Kind != timeline.CacheHit && ev.Kind != timeline.CacheMiss {
			got = append(got, ev)
		}
	}
	want := rec.Events()
	if len(want) == 0 {
		t.Fatal("the solo run recorded nothing")
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("event %d differs:\nfleet: %+v\nsolo:  %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the fleet session recorded %d events besides cache outcomes, the solo run %d", len(got), len(want))
	}
}

// Demuxed packaging at a shared edge: the second session's video requests
// hit the chunks the first session already pulled in, so the fleet's hit
// ratio must exceed a solo run's.
func TestFleetSharedCacheAmplification(t *testing.T) {
	solo := baseConfig(1)
	solo.ArrivalSpread = 0
	one, err := Run(solo)
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	pair := baseConfig(2)
	two, err := Run(pair)
	if err != nil {
		t.Fatalf("pair: %v", err)
	}
	if two.Cache.Hits <= one.Cache.Hits {
		t.Errorf("shared cache hits did not grow: solo %d, pair %d", one.Cache.Hits, two.Cache.Hits)
	}
	if two.Cache.HitRatio() <= one.Cache.HitRatio() {
		t.Errorf("hit ratio did not amplify: solo %.3f, pair %.3f",
			one.Cache.HitRatio(), two.Cache.HitRatio())
	}
	// Per-session accounting must sum to the aggregate.
	var req, hits int64
	for _, s := range two.Sessions {
		req += s.Cache.Requests
		hits += s.Cache.Hits
	}
	if req != two.Cache.Requests || hits != two.Cache.Hits {
		t.Errorf("per-session sums (%d req, %d hits) != aggregate (%d, %d)",
			req, hits, two.Cache.Requests, two.Cache.Hits)
	}
}

// Mix assigns models round-robin by session index.
func TestFleetMixRoundRobin(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Mix = []core.PlayerKind{core.BestPractice, core.BolaJoint}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []core.PlayerKind{core.BestPractice, core.BolaJoint, core.BestPractice, core.BolaJoint}
	for i, s := range res.Sessions {
		if s.Kind != want[i] {
			t.Errorf("session %d kind = %s, want %s", i, s.Kind, want[i])
		}
	}
	if res.Fleet.Sessions != 4 {
		t.Errorf("Fleet.Sessions = %d, want 4", res.Fleet.Sessions)
	}
	if res.Fleet.JainVideoKbps <= 0 || res.Fleet.JainVideoKbps > 1 {
		t.Errorf("JainVideoKbps = %g outside (0, 1]", res.Fleet.JainVideoKbps)
	}
}

// Staggered arrivals must be sorted and within the spread window; session
// metrics carry session-relative times regardless of arrival.
func TestFleetArrivalsSortedAndRebased(t *testing.T) {
	cfg := baseConfig(8)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var prev time.Duration = -1
	for _, s := range res.Sessions {
		if s.Arrival < prev {
			t.Fatalf("arrivals not sorted: session %d at %v after %v", s.ID, s.Arrival, prev)
		}
		if s.Arrival < 0 || s.Arrival >= cfg.ArrivalSpread {
			t.Fatalf("session %d arrival %v outside [0, %v)", s.ID, s.Arrival, cfg.ArrivalSpread)
		}
		prev = s.Arrival
		// A session-relative startup delay is short even for late
		// arrivals.
		if d := s.Metrics.StartupDelay; d <= 0 || d >= 2*time.Second {
			t.Errorf("session %d (arrived at %v) started after %v: not rebased", s.ID, s.Arrival, d)
		}
	}
	if last := res.Sessions[len(res.Sessions)-1].Arrival; last < 2*time.Second {
		t.Fatalf("the last session arrived at %v: no arrival late enough to tell", last)
	}
}

func TestFleetConfigGuards(t *testing.T) {
	if _, err := Run(Config{Sessions: 0, UplinkProfile: trace.Fixed(media.Kbps(1000))}); err == nil {
		t.Error("zero sessions: want error")
	}
	if _, err := Run(Config{Sessions: 2}); err == nil {
		t.Error("nil uplink profile: want error")
	}
	cfg := baseConfig(2)
	cfg.Mode = cdnsim.Muxed
	cfg.FaultPlan = &faults.Plan{Seed: 1, Rate: 0.1}
	if _, err := Run(cfg); err == nil {
		t.Error("muxed + faults: want error")
	}
}

// Per-session fault plans derive from the fleet seed: the fleet stays
// deterministic under injection, and robustness keeps sessions alive.
func TestFleetFaultInjectionDeterministic(t *testing.T) {
	cfg := baseConfig(3)
	cfg.FaultPlan = &faults.Plan{Seed: 5, Rate: 0.05}
	pol := faults.DefaultPolicy()
	cfg.Robustness = &pol
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if !bytes.Equal(fleetJSON(t, a), fleetJSON(t, b)) {
		t.Fatal("fault-injected fleet not deterministic")
	}
	if a.Completed != 3 {
		t.Fatalf("Completed = %d, want 3 (robust sessions should survive 5%% loss)", a.Completed)
	}
}

// TestTimelineFleetDeterministic pins the fleet flight recorder: with
// Timeline on, two identical runs export byte-identical JSONL and Chrome
// traces, and the recording covers the shared-infrastructure kinds (cache
// outcomes, uplink rate changes) alongside per-session fault handling.
func TestTimelineFleetDeterministic(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Timeline = true
	cfg.FaultPlan = &faults.Plan{Seed: 5, Rate: 0.02}
	pol := faults.DefaultPolicy()
	cfg.Robustness = &pol

	export := func() (jsonl, chrome []byte, res *Result) {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var jb, cb bytes.Buffer
		if err := timeline.WriteJSONL(&jb, res.Recorders); err != nil {
			t.Fatal(err)
		}
		if err := timeline.WriteChromeTrace(&cb, res.Recorders); err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), cb.Bytes(), res
	}
	ja, ca, res := export()
	jb, cb, _ := export()
	if !bytes.Equal(ja, jb) {
		t.Error("fleet JSONL export differs between identical runs")
	}
	if !bytes.Equal(ca, cb) {
		t.Error("fleet Chrome trace differs between identical runs")
	}
	if !json.Valid(ca) {
		t.Error("fleet Chrome trace is not valid JSON")
	}

	if len(res.Recorders) != cfg.Sessions+1 {
		t.Fatalf("recorders = %d, want %d sessions + uplink", len(res.Recorders), cfg.Sessions+1)
	}
	if got := res.Recorders[cfg.Sessions].Label(); got != "uplink" {
		t.Errorf("last recorder label = %q, want uplink", got)
	}
	kinds := map[timeline.Kind]int{}
	for _, rec := range res.Recorders {
		for _, ev := range rec.Events() {
			kinds[ev.Kind]++
		}
	}
	for _, kind := range []timeline.Kind{
		timeline.Decision, timeline.Request, timeline.RequestDone,
		timeline.CacheHit, timeline.CacheMiss, timeline.FaultInjected,
		timeline.Retry, timeline.LinkRate,
	} {
		if kinds[kind] == 0 {
			t.Errorf("fleet recorded no %s events", kind)
		}
	}
	// The report surfaces the merged counters.
	doc := res.Report("drama-show")
	if doc.TimelineCounters == nil || doc.TimelineCounters.Events == 0 {
		t.Error("fleet report missing timeline counters")
	}
	if doc.TimelineCounters != nil && doc.TimelineCounters.CacheHits == 0 {
		t.Error("fleet counters missing cache hits")
	}
}

// TestTimelineOffLeavesNoRecorders guards the default path: without
// Timeline, the result carries no recorders and the report no counters —
// and with sampled timelines, unsampled sessions never allocate one either.
func TestTimelineOffLeavesNoRecorders(t *testing.T) {
	res, err := Run(baseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recorders != nil {
		t.Error("recorders attached without Timeline")
	}
	if res.Report("drama-show").TimelineCounters != nil {
		t.Error("report has counters without Timeline")
	}

	// Sampled case: with k larger than the fleet and a phase that selects
	// only session (Seed mod k), exactly one session records; the other
	// sessions must skip recorder allocation entirely, not carry empty
	// recorders.
	cfg := baseConfig(4)
	cfg.Timeline = true
	cfg.SampleTimelines = 4
	sampledID := int(cfg.Seed % 4)
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recorders) != 2 { // one sampled session + its cell's uplink
		t.Fatalf("%d recorders with 1-in-4 sampling over 4 sessions, want 2", len(res.Recorders))
	}
	if got := res.Recorders[0].Session(); got != sampledID {
		t.Errorf("sampled session %d, want %d (seed-derived phase)", got, sampledID)
	}
	if res.Recorders[1].Label() != "uplink" {
		t.Errorf("second recorder %q, want the uplink", res.Recorders[1].Label())
	}
	if res.Report("drama-show").TimelineCounters == nil {
		t.Error("sampled run lost its counters")
	}
}

// TestAllAbortFleetExport is the regression test for the NaN export bug: a
// fleet where every session aborts has an empty completed-score
// distribution, whose NaN summary used to kill the whole JSON export.
func TestAllAbortFleetExport(t *testing.T) {
	cfg := baseConfig(2)
	cfg.UplinkProfile = trace.Fixed(media.Kbps(80)) // starve everyone
	cfg.AccessProfile = trace.Fixed(media.Kbps(80))
	cfg.ArrivalSpread = 0
	cfg.Deadline = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("Completed = %d, want 0 (config no longer starves the fleet)", res.Completed)
	}
	data := fleetJSON(t, res)
	if !json.Valid(data) {
		t.Fatalf("all-abort fleet report is not valid JSON:\n%s", data)
	}
	if !bytes.Contains(data, []byte(`"qoe_score_completed"`)) {
		t.Error("report missing qoe_score_completed distribution")
	}
	if !bytes.Contains(data, []byte(`"median": null`)) && !bytes.Contains(data, []byte(`"median":null`)) {
		t.Error("empty distribution's NaN median not exported as null")
	}
}
