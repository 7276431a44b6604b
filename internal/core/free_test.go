package core

import (
	"fmt"
	"reflect"
	"testing"

	"demuxabr/internal/faults"
	"demuxabr/internal/netsim"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// TestFreePlayStateHoldsNoCallerPointer: a Play state on the free stack
// holds nothing of the Plays that put it back. Nothing reachable from it,
// down to the spare capacity of its slices, is a recorder, or the fault
// plan, retry policy, transport or live config a caller passed in. The
// dirty sessions play first, and the last Play records on its link and
// its session over lossy HTTP/1.1 with faults retried, so its leaf, its
// transfers and its connections all had the recorder attached.
func TestFreePlayStateHoldsNoCallerPointer(t *testing.T) {
	playStates.Drain()
	defer playStates.Drain()
	pol := faults.DefaultPolicy()
	h1 := netsim.DefaultTransport(netsim.H1)
	h1.LossRate, h1.Seed = 0.05, 5
	last := dirtySpec{Spec: Spec{Profile: trace.Fig3VaryingAvg600(), Player: BestPractice,
		Recorder: timeline.New(0, "s0 bestpractice"), Transport: &h1, Robustness: &pol,
		Faults: &faults.Plan{Seed: 3, Rate: 0.2, Kinds: faults.AllKinds()}}}
	forbidden := make(map[uintptr]string)
	for _, spec := range append(dirtySpecs(), last) {
		if _, err := playReused(spec); err != nil {
			t.Fatal(err)
		}
		for what, p := range map[string]any{"fault plan": spec.Faults, "retry policy": spec.Robustness,
			"transport config": spec.Transport, "live config": spec.Live} {
			if v := reflect.ValueOf(p); !v.IsNil() {
				forbidden[v.Pointer()] = fmt.Sprintf("the %s of a %s Play", what, spec.Player)
			}
		}
	}
	if len(last.Recorder.Events()) == 0 {
		t.Fatal("the last Play recorded nothing")
	}
	free := playStates.Drain()
	if len(free) != 1 {
		t.Fatalf("%d free states, want the Plays' one", len(free))
	}
	if path := reachable(reflect.ValueOf(free[0]), forbidden); path != "" {
		t.Fatalf("the free state reaches %s", path)
	}
}

// reachable walks everything v reaches through pointers, interfaces,
// structs, arrays, maps and slices (their spare capacity included, which
// the collector also keeps alive) and describes the first path that ends
// at a forbidden address or at any recorder, or returns "". Function
// values are opaque to it.
func reachable(v reflect.Value, forbidden map[uintptr]string) string {
	seen := make(map[uintptr]map[reflect.Type]bool)
	recorder := reflect.TypeOf((*timeline.Recorder)(nil))
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
			if v.Type() == recorder {
				return "a recorder at " + path
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
	return walk(v, "st")
}
