package fleet_test

import (
	"testing"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// TestSolverWorkCounts pins the simulator's work for one 16-session cell
// of each of the fleets TestFleetAllocsPerSession measures: the events
// the shard's engine fires and its uplink's advances, transfer updates
// and fill recomputes. The vod row is fleet-vod's deployment (the four
// joint models behind one uplink and edge), the resilient row turns on
// every optional request stage and the live row runs the low-latency trio
// in live mode. The counts are deterministic, so they are exact: a change
// that leaves them as they are changed what each unit of work costs, not
// how much work there is. Lower a pin when a change cuts the work; never
// raise one to make a regression pass.
func TestSolverWorkCounts(t *testing.T) {
	const sessions = 16
	vod := fleet.Config{
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
	resilient := vod
	resilient.CacheBytes = 8 << 20
	tc := netsim.DefaultTransport(netsim.H1)
	tc.IdleTimeout = 700 * time.Millisecond
	tc.LossRate = 0.02
	resilient.Transport = &tc
	resilient.AccessRTT = 200 * time.Millisecond
	resilient.FaultPlan = &faults.Plan{
		Seed:  17,
		Rate:  0.02,
		Kinds: append(faults.AllKinds(), faults.TransportKinds()...),
	}
	pol := faults.DefaultPolicy()
	resilient.Robustness = &pol
	live := vod
	live.Mix = experiments.LiveModels()
	live.Live = experiments.LiveConfig()

	fleet.DropFreeStates()
	defer fleet.DropFreeStates()
	for _, row := range []struct {
		name  string
		cfg   fleet.Config
		fired uint64
		want  netsim.SolverWork
	}{
		{"vod", vod, 51896, netsim.SolverWork{Advances: 32310, Updates: 571745, Fills: 3834}},
		{"resilient", resilient, 47906, netsim.SolverWork{Advances: 34055, Updates: 534171, Fills: 3949}},
		{"live", live, 31985, netsim.SolverWork{Advances: 11733, Updates: 104786, Fills: 3111}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if _, err := fleet.Run(row.cfg); err != nil {
				t.Fatal(err)
			}
			free := fleet.DrainWork()
			if len(free) != 1 {
				t.Fatalf("%d free states, want the Run's one", len(free))
			}
			got := free[0]
			t.Logf("per session: %.1f events, %.1f advances, %.1f transfer updates, %.1f fills",
				float64(got.Fired)/sessions, float64(got.Solver.Advances)/sessions,
				float64(got.Solver.Updates)/sessions, float64(got.Solver.Fills)/sessions)
			if got.Fired != row.fired {
				t.Errorf("the engine fired %d events, pinned at %d", got.Fired, row.fired)
			}
			if got.Solver != row.want {
				t.Errorf("solver work %+v, pinned at %+v", got.Solver, row.want)
			}
		})
	}
}
