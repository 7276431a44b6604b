package fleet_test

import (
	"testing"

	"demuxabr/internal/fleet"
	"demuxabr/internal/ledger"
	"demuxabr/internal/netsim"
)

// TestSolverWorkCounts pins the simulator's work for one 16-session cell
// of each of the fleets TestFleetAllocsPerSession measures: the events
// the shard's engine fires and its uplink's advances, transfer updates
// and fill recomputes. The vod row is fleet-vod's deployment (the four
// joint models behind one uplink and edge), the resilient row turns on
// every optional request stage and the live row runs the low-latency trio
// in live mode. The counts are deterministic, so they are exact: a change
// that leaves them as they are changed what each unit of work costs, not
// how much work there is. The pins are rows of the ratchet ledger
// (docs/PERFORMANCE.md): lower one when a change cuts the work; never
// raise one to make a regression pass.
func TestSolverWorkCounts(t *testing.T) {
	const sessions = 16
	pins := ledger.For(t)
	fleet.DropFreeStates()
	defer fleet.DropFreeStates()
	for _, row := range []struct {
		name string
		cfg  fleet.Config
	}{
		{"vod", fleet.VodFleet()},
		{"resilient", fleet.ResilientFleet()},
		{"live", liveFleet()},
	} {
		row.cfg.Sessions, row.cfg.CellSessions = sessions, sessions
		fired := uint64(pins.Bound(row.name, "events"))
		want := netsim.SolverWork{
			Advances: uint64(pins.Bound(row.name, "advances")),
			Updates:  uint64(pins.Bound(row.name, "updates")),
			Fills:    uint64(pins.Bound(row.name, "fills")),
		}
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
			if got.Fired != fired {
				t.Errorf("the engine fired %d events, pinned at %d", got.Fired, fired)
			}
			if got.Solver != want {
				t.Errorf("solver work %+v, pinned at %+v", got.Solver, want)
			}
		})
	}
}
