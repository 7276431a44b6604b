package fleet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/timeline"
)

// TestFreeShardSimHoldsNoCallerPointer: a shard state on the free stack
// holds nothing of the Run that put it back. Its fleet, aggregate and
// arrival times are unbound, every slot is empty but for its callbacks,
// the edge has no Observer, and nothing reachable from the state, down to
// the spare capacity of its slices, is one of the Run's recorders, its
// aggregate or its Config, or the fault plan, transport, policy or live
// config the caller passed in. The fleets record sampled timelines and run
// every optional layer, on the streaming and on the exact path.
func TestFreeShardSimHoldsNoCallerPointer(t *testing.T) {
	for _, retained := range []int{-1, 0} {
		t.Run(fmt.Sprintf("MaxRetained=%d", retained), func(t *testing.T) {
			DropFreeStates()
			defer DropFreeStates()
			cfg := cellConfig(16)
			cfg.Shards, cfg.MaxRetained = 1, retained
			cfg.Mix = []core.PlayerKind{core.LLDefault, core.LLL2A, core.LLLoLP}
			cfg.Live = &player.LiveConfig{LatencyTarget: 4 * time.Second, PartTarget: time.Second}
			cfg.Timeline, cfg.SampleTimelines = true, 2
			cfg.FaultPlan = &faults.Plan{Seed: 5, Rate: 0.05, Blackouts: []faults.Window{{Start: 5 * time.Second, End: 6 * time.Second}}}
			pol := faults.DefaultPolicy()
			cfg.Robustness = &pol
			tc := netsim.DefaultTransport(netsim.H1)
			cfg.Transport = &tc
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Recorders) == 0 {
				t.Fatal("the fleet recorded nothing")
			}
			free := shardSims.Drain()
			if len(free) != 1 {
				t.Fatalf("%d free states, want the Run's one", len(free))
			}
			sim := free[0]
			if sim.cfg != nil || sim.agg != nil || sim.arrive != nil {
				t.Fatal("the free state still holds the Run's fleet, aggregate or arrival times")
			}
			if sim.edge.Observer != nil {
				t.Fatal("the free state's edge still has an Observer")
			}
			for li := range sim.slots {
				sl := &sim.slots[li]
				if !reflect.ValueOf(sl.pcfg).IsZero() || sl.combos != nil || sl.leaf != nil || sl.err != nil ||
					!reflect.ValueOf(sl.plan).IsZero() || !reflect.ValueOf(sl.tc).IsZero() {
					t.Fatalf("slot %d still holds its last session's state", li)
				}
			}

			forbidden := map[uintptr]string{
				reflect.ValueOf(cfg.FaultPlan).Pointer():           "the fault plan",
				reflect.ValueOf(cfg.FaultPlan.Blackouts).Pointer(): "the fault plan's blackouts",
				reflect.ValueOf(cfg.Robustness).Pointer():          "the retry policy",
				reflect.ValueOf(cfg.Transport).Pointer():           "the transport config",
				reflect.ValueOf(cfg.Live).Pointer():                "the live config",
			}
			for _, rec := range res.Recorders {
				forbidden[reflect.ValueOf(rec).Pointer()] = "a recorder " + rec.Label()
			}
			if path := reachable(reflect.ValueOf(sim), forbidden); path != "" {
				t.Fatalf("the free state reaches %s", path)
			}
		})
	}
}

// reachable walks everything v reaches through pointers, interfaces,
// structs, arrays, maps and slices (their spare capacity included, which
// the collector also keeps alive) and describes the first path that ends
// at a forbidden address or at any recorder, shard aggregate or Config,
// or returns "". Function values are opaque to it.
func reachable(v reflect.Value, forbidden map[uintptr]string) string {
	seen := make(map[uintptr]map[reflect.Type]bool)
	banned := map[reflect.Type]bool{
		reflect.TypeOf((*timeline.Recorder)(nil)): true,
		reflect.TypeOf((*shardAgg)(nil)):          true,
		reflect.TypeOf((*Config)(nil)):            true,
	}
	var walk func(v reflect.Value, path string) string
	walk = func(v reflect.Value, path string) string {
		switch v.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			if v.IsNil() {
				return ""
			}
			p := v.Pointer()
			if what, ok := forbidden[p]; ok {
				return what + " at " + path
			}
			if banned[v.Type()] {
				return v.Type().String() + " at " + path
			}
			if seen[p][v.Type()] {
				return ""
			}
			if seen[p] == nil {
				seen[p] = make(map[reflect.Type]bool)
			}
			seen[p][v.Type()] = true
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				return ""
			}
			return walk(v.Elem(), path)
		case reflect.Struct:
			for i := range v.NumField() {
				if found := walk(v.Field(i), path+"."+v.Type().Field(i).Name); found != "" {
					return found
				}
			}
		case reflect.Slice:
			v = v.Slice(0, v.Cap())
			fallthrough
		case reflect.Array:
			for i := range v.Len() {
				if found := walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); found != "" {
					return found
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				if found := walk(it.Key(), path+"{key}"); found != "" {
					return found
				}
				if found := walk(it.Value(), path+"{value}"); found != "" {
					return found
				}
			}
		}
		return ""
	}
	return walk(v, "sim")
}
