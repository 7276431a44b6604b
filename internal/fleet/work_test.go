package fleet

import (
	"testing"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// TestSolverWorkCounts pins the simulator's work for one 16-session cell
// shaped like fleet-vod's (the four joint models behind one uplink and
// edge): the events the shard's engine fires and its uplink's advances,
// transfer updates and fill recomputes, per session. The counts are
// deterministic, so they are exact: a change that leaves them as they are
// changed what each unit of work costs, not how much work there is. Lower
// a pin when a change cuts the work; never raise one to make a regression
// pass.
func TestSolverWorkCounts(t *testing.T) {
	DropFreeStates()
	defer DropFreeStates()
	const sessions = 16
	cfg := Config{
		Content:       media.DramaShow(),
		Sessions:      sessions,
		Mix:           []core.PlayerKind{core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint},
		Mode:          cdnsim.Demuxed,
		CacheBytes:    256 << 20,
		MissPenalty:   60 * time.Millisecond,
		UplinkProfile: trace.Fixed(media.Kbps(24_000)),
		AccessProfile: trace.Fixed(media.Kbps(6_000)),
		ArrivalSpread: 30 * time.Second,
		Seed:          17,
		CellSessions:  sessions,
		Shards:        1,
		MaxRetained:   -1,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	free := shardSims.Drain()
	if len(free) != 1 {
		t.Fatalf("%d free states, want the Run's one", len(free))
	}
	sim := free[0]
	const fired = 51896
	want := netsim.SolverWork{Advances: 32310, Updates: 571745, Fills: 3834}
	got := sim.up.Work()
	t.Logf("per session: %.1f events, %.1f advances, %.1f transfer updates, %.1f fills",
		float64(sim.eng.Fired())/sessions, float64(got.Advances)/sessions,
		float64(got.Updates)/sessions, float64(got.Fills)/sessions)
	if n := sim.eng.Fired(); n != fired {
		t.Errorf("the engine fired %d events, pinned at %d", n, fired)
	}
	if got != want {
		t.Errorf("solver work %+v, pinned at %+v", got, want)
	}
}
