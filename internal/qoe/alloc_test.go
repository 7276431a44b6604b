//go:build !race

package qoe

import (
	"testing"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

// TestComputeAllocs pins the allocations of scoring one finished session:
// the paper's best-practice joint model over the Fig. 3 trace, scored
// against H_sub. Compute runs once per session of every fleet, so each
// allocation here is one per session there. The pin is a row of the
// ratchet ledger (docs/PERFORMANCE.md). The race detector changes
// allocation counts, so the test is built only without it (check.sh runs
// it in a step of its own).
func TestComputeAllocs(t *testing.T) {
	pin := ledger.For(t).Bound("bestpractice", "allocs")
	c := media.DramaShow()
	allowed := media.HSub(c)
	res, err := player.Run(netsim.NewLink(netsim.NewEngine(), trace.Fig3VaryingAvg600()),
		player.Config{Content: c, Model: jointabr.New(abr.NewAllowed(allowed))})
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	allocs := testing.AllocsPerRun(10, func() { m = Compute(res, c, allowed, DefaultWeights()) })
	if m.DistinctCombos == 0 {
		t.Fatal("session selected no combination")
	}
	t.Logf("%.0f allocs per Compute", allocs)
	if allocs > pin {
		t.Fatalf("%.0f allocs per Compute, pinned at %.0f", allocs, pin)
	}
}
