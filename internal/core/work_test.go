package core

import (
	"testing"

	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// TestSolverWorkCounts pins the simulator's work for one solo Play, best
// practice on the Fig. 3 trace: the events its engine fires and its
// uplink's advances, transfer updates and fill recomputes. The counts are
// deterministic, so they are exact: a change that leaves them as they are
// changed what each unit of work costs, not how much work there is. Lower
// a pin when a change cuts the work; never raise one to make a regression
// pass.
func TestSolverWorkCounts(t *testing.T) {
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
	const fired = 5089
	want := netsim.SolverWork{Advances: 2884, Updates: 4279, Fills: 190}
	if got := st.eng.Fired(); got != fired {
		t.Errorf("the engine fired %d events, pinned at %d", got, fired)
	}
	if got := st.up.Work(); got != want {
		t.Errorf("solver work %+v, pinned at %+v", got, want)
	}
}
