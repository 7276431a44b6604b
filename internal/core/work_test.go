package core

import (
	"testing"

	"demuxabr/internal/ledger"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// TestSolverWorkCounts pins the simulator's work for one solo Play, best
// practice on the Fig. 3 trace: the events its engine fires and its
// uplink's advances, transfer updates and fill recomputes. The counts are
// deterministic, so they are exact: a change that leaves them as they are
// changed what each unit of work costs, not how much work there is. The
// pins are rows of the ratchet ledger (docs/PERFORMANCE.md): lower one
// when a change cuts the work; never raise one to make a regression pass.
func TestSolverWorkCounts(t *testing.T) {
	pins := ledger.For(t)
	playStates.Drain()
	defer playStates.Drain()
	if _, err := Play(Spec{Profile: trace.Fig3VaryingAvg600(), Player: BestPractice}); err != nil {
		t.Fatal(err)
	}
	free := playStates.Drain()
	if len(free) != 1 {
		t.Fatalf("%d free states, want the Play's one", len(free))
	}
	st := free[0]
	const row = "bestpractice"
	fired := uint64(pins.Bound(row, "events"))
	want := netsim.SolverWork{
		Advances: uint64(pins.Bound(row, "advances")),
		Updates:  uint64(pins.Bound(row, "updates")),
		Fills:    uint64(pins.Bound(row, "fills")),
	}
	if got := st.eng.Fired(); got != fired {
		t.Errorf("the engine fired %d events, pinned at %d", got, fired)
	}
	if got := st.up.Work(); got != want {
		t.Errorf("solver work %+v, pinned at %+v", got, want)
	}
}
