package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// warmFleet is one fleet of a reuse sequence.
type warmFleet struct {
	name string
	cfg  fleet.Config
}

// vodFleet is a small streaming fleet shaped like the benchmark's
// fleet-vod: the four joint models behind one uplink and edge, in
// 16-session cells.
func vodFleet() fleet.Config {
	return fleet.Config{
		Content:       media.DramaShow(),
		Sessions:      32,
		Mix:           []core.PlayerKind{core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint},
		Mode:          cdnsim.Demuxed,
		CacheBytes:    256 << 20,
		MissPenalty:   60 * time.Millisecond,
		UplinkProfile: trace.Fixed(media.Kbps(24_000)),
		AccessProfile: trace.Fixed(media.Kbps(6_000)),
		ArrivalSpread: 30 * time.Second,
		Seed:          17,
		CellSessions:  16,
		Shards:        1,
		MaxRetained:   -1,
	}
}

// warmFleets is a sequence of fleets that each differ from the one before
// it: in what their sessions run (vod, every optional request stage, live,
// muxed objects), in what the Run records (sampled timelines) or retains
// (the exact path), and in the shape of the state it runs on (a larger
// cell over two shards, a smaller edge, another uplink capacity).
func warmFleets() []warmFleet {
	vod := vodFleet()
	resilient := vodFleet()
	resilient.CacheBytes = 8 << 20
	tc := netsim.DefaultTransport(netsim.H1)
	tc.IdleTimeout = 700 * time.Millisecond
	tc.LossRate = 0.02
	resilient.Transport = &tc
	resilient.AccessRTT = 200 * time.Millisecond
	resilient.FaultPlan = &faults.Plan{Seed: 17, Rate: 0.02, Kinds: append(faults.AllKinds(), faults.TransportKinds()...)}
	pol := faults.DefaultPolicy()
	resilient.Robustness = &pol
	live := vodFleet()
	live.Mix = experiments.LiveModels()
	live.Live = experiments.LiveConfig()
	muxed := vodFleet()
	muxed.Mode = cdnsim.Muxed
	recorded := vodFleet()
	recorded.Timeline = true
	recorded.SampleTimelines = 3
	exact := vodFleet()
	exact.MaxRetained = 0
	cells := vodFleet()
	cells.Sessions, cells.CellSessions, cells.Shards = 48, 24, 2
	smallEdge := vodFleet()
	smallEdge.CacheBytes = 4 << 20
	uplink := vodFleet()
	uplink.UplinkProfile = trace.Fixed(media.Kbps(12_000))
	return []warmFleet{
		{"vod", vod}, {"resilient", resilient}, {"live", live}, {"muxed", muxed},
		{"timeline", recorded}, {"exact", exact}, {"cells", cells},
		{"small-edge", smallEdge}, {"uplink", uplink},
	}
}

// runFleet runs cfg and returns its report's JSON followed by its
// recorders' JSONL export, and the Result.
func runFleet(t *testing.T, cfg fleet.Config) ([]byte, *fleet.Result) {
	t.Helper()
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return encodeFleet(t, res), res
}

// encodeFleet is res's report JSON followed by its recorders' JSONL.
func encodeFleet(t *testing.T, res *fleet.Result) []byte {
	t.Helper()
	js, err := encode(res)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// encode is encodeFleet for any goroutine.
func encode(res *fleet.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.Report("drama-show").WriteJSON(&buf); err != nil {
		return nil, err
	}
	err := timeline.WriteJSONL(&buf, res.Recorders)
	return buf.Bytes(), err
}

// freshFleet runs cfg on shard states built for it, and drops them.
func freshFleet(t *testing.T, cfg fleet.Config) ([]byte, *fleet.Result) {
	t.Helper()
	fleet.DropFreeStates()
	defer fleet.DropFreeStates()
	return runFleet(t, cfg)
}

// TestRunOnReusedStateMatchesFresh runs warmFleets one after another,
// twice over, so each Run takes the shard state the one before it left.
// Each report and recorder export must be byte-equal to the same fleet's
// on shard states built for it. The timeline fleet's recorders must also
// come through every later Run unchanged: a reused edge that kept its
// Observer would write the next fleets' cache outcomes into them.
func TestRunOnReusedStateMatchesFresh(t *testing.T) {
	fleets := warmFleets()
	want := make([][]byte, len(fleets))
	for i, f := range fleets {
		want[i], _ = freshFleet(t, f.cfg)
	}
	var recorded *fleet.Result
	var recordedJS []byte
	for round := range 2 {
		for i, f := range fleets {
			got, res := runFleet(t, f.cfg)
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d, %s: the fleet on reused state differs from fresh state (%d vs %d bytes)", round, f.name, len(got), len(want[i]))
			}
			if f.cfg.Timeline && recorded == nil {
				recorded, recordedJS = res, got
			}
		}
	}
	if len(recorded.Recorders) == 0 {
		t.Fatal("the timeline fleet recorded nothing")
	}
	if got := encodeFleet(t, recorded); !bytes.Equal(got, recordedJS) {
		t.Fatal("later Runs changed the timeline fleet's recorders")
	}
}

// TestExactResultOutlivesLaterRuns: on the exact path each SessionResult's
// Result lives in the Session object that ran it, so that object must
// never be reused. An exact-path Result is kept through ten later
// streaming Runs on the state it ran on, and must still deep-equal, and
// encode as, a snapshot of it run on state that is then dropped.
func TestExactResultOutlivesLaterRuns(t *testing.T) {
	exact := vodFleet()
	exact.MaxRetained = 0
	wantJS, snapshot := freshFleet(t, exact)
	kept, err := fleet.Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Streamed || len(kept.Sessions) != exact.Sessions {
		t.Fatalf("the exact fleet kept %d sessions (streamed %v), want %d", len(kept.Sessions), kept.Streamed, exact.Sessions)
	}
	sessionJSON := func(r *fleet.Result) []byte {
		js, err := json.Marshal(r.Sessions)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	wantSessions := sessionJSON(snapshot)
	for i := range 10 {
		later := vodFleet()
		later.UplinkProfile = trace.Fixed(media.Kbps(float64(12_000 + 2_000*i)))
		if _, err := fleet.Run(later); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(kept, snapshot) {
		t.Fatal("later Runs changed the kept exact-path Result")
	}
	if !bytes.Equal(encodeFleet(t, kept), wantJS) || !bytes.Equal(sessionJSON(kept), wantSessions) {
		t.Fatal("later Runs changed the kept exact-path Result's JSON")
	}
}

// TestFailedRunGivesNoStateBack: a Run whose cell exhausts MaxEvents
// returns an error and keeps the state it ran on, which can hold pending
// events, off the free stack; the next Run matches fresh state.
func TestFailedRunGivesNoStateBack(t *testing.T) {
	vod := vodFleet()
	want, _ := freshFleet(t, vod)
	failing := vodFleet()
	failing.MaxEvents = 5_000
	if _, err := fleet.Run(failing); err == nil {
		t.Fatal("a Run with 5,000 events per cell succeeded")
	}
	if n := fleet.FreeStates(); n != 0 {
		t.Fatalf("the failed Run gave %d states back", n)
	}
	if got, _ := runFleet(t, vod); !bytes.Equal(got, want) {
		t.Fatal("the Run after a failed one differs from fresh state")
	}
}

// TestParallelRunsMatchSerial runs four fleets on four goroutines at once,
// each goroutine in its own order, and requires the reports of serial
// Runs: each shard worker takes its own state from the shared stack. Run
// under the race detector, it also checks that no state is shared.
func TestParallelRunsMatchSerial(t *testing.T) {
	fleets := warmFleets()[:4]
	for i := range fleets {
		fleets[i].cfg.Sessions = 16
		fleets[i].cfg.CellSessions = 8
	}
	want := make([][]byte, len(fleets))
	for i, f := range fleets {
		want[i], _ = runFleet(t, f.cfg)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range fleets {
				i := (k + w) % len(fleets)
				res, err := fleet.Run(fleets[i].cfg)
				var got []byte
				if err == nil {
					got, err = encode(res)
				}
				if err == nil && !bytes.Equal(got, want[i]) {
					err = fmt.Errorf("%s: a parallel Run differs from a serial one", fleets[i].name)
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
