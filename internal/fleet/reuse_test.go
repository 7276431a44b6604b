//go:build !race

package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"demuxabr/internal/ledger"
)

// TestSessionReuseAllocFree pins the recycling of whole sessions across a
// shard's cells: once one cell has run and released its sessions, a
// second cell on the warm shard allocates no Session, no transport
// connection, no blacklist and no chunk log, on the streaming and on the
// exact path: both keep a session's row, never its Result, so no session
// hands its logs over. The fleet is the resilient one
// TestFleetAllocsPerSession measures, whose sessions build all four, and
// the test counts the second cell's allocations by the function that made
// them, from a profile of every allocation; the ratchet ledger
// (docs/PERFORMANCE.md) pins their count on each path. The race detector
// changes allocation counts, so the test is built only without it
// (check.sh runs it in a step of its own).
func TestSessionReuseAllocFree(t *testing.T) {
	pins := ledger.For(t)
	for _, path := range []struct {
		name     string
		retained int
	}{{"streaming", -1}, {"exact", 0}} {
		pin := pins.Bound(path.name, "allocs")
		t.Run(fmt.Sprintf("MaxRetained=%d", path.retained), func(t *testing.T) {
			cfg := resilientFleet()
			cfg.MaxRetained = path.retained
			if err := cfg.setDefaults(); err != nil {
				t.Fatal(err)
			}
			manifests, err := cfg.parseManifests()
			if err != nil {
				t.Fatal(err)
			}
			cells := cfg.cells()
			sim := takeShardSim(&cfg, newShardAgg(&cfg, cfg.streaming()), cfg.arrivals())
			cell := func(ci int) {
				if err := runCell(sim, manifests, ci, len(cells), cells[ci]); err != nil {
					t.Fatal(err)
				}
			}
			cell(0)
			sites := allocSites(func() { cell(1) })
			reused := []string{
				"demuxabr/internal/player.(*Pool).Start",    // the Session and its spare parts
				"demuxabr/internal/player.(*Session).start", // bound loops, the decision map
				"demuxabr/internal/netsim.NewConn",
				"demuxabr/internal/faults.NewBlacklist",
				"demuxabr/internal/player.reuse[", // the chunk log
			}
			var n int64
			for _, site := range reused {
				for fn, k := range sites {
					if strings.HasPrefix(fn, site) {
						n += k
						t.Logf("the second cell allocates %d objects in %s", k, fn)
					}
				}
			}
			if float64(n) > pin {
				t.Errorf("the second cell allocates %d objects in the sites a warm shard reuses, pinned at %.0f", n, pin)
				names := make([]string, 0, len(sites))
				for fn := range sites {
					names = append(names, fn)
				}
				slices.Sort(names)
				for _, fn := range names {
					t.Logf("%6d %s", sites[fn], fn)
				}
			}
		})
	}
}

// allocSites runs f with every allocation profiled and returns the
// objects it allocated, keyed by the innermost function outside the
// runtime that allocated them (inlined calls count as their own).
func allocSites(f func()) map[string]int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := profiledSites()
	f()
	after := profiledSites()
	for fn, n := range before {
		if after[fn] -= n; after[fn] == 0 {
			delete(after, fn)
		}
	}
	return after
}

// profiledSites returns the heap profile's allocation counts by site.
func profiledSites() map[string]int64 {
	// An allocation reaches the profile only once the collections after it
	// have completed.
	for range 3 {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for n := 256; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if k, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:k]
			break
		}
	}
	sites := make(map[string]int64)
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if fr.Function == "runtime.typeAssert" || fr.Function == "runtime.interfaceSwitch" {
				// The runtime's per-site cache of type-assertion results,
				// which it grows at random (on about 1 in 1,024 cache misses,
				// see runtime/iface.go): not an object the program made, and
				// not one a warm session can avoid.
				break
			}
			if !strings.HasPrefix(fr.Function, "runtime.") {
				sites[fr.Function] += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return sites
}
