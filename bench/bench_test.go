package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// smallSize gives a unit of each workload about 64 sessions.
func smallSize(w *workload) int {
	if w.fleet == nil {
		return 6 // traces × 12 variants = 72 sessions
	}
	return 64
}

// tiny is w with one-trace or one-cell units, for quick whole-run tests.
func tiny(w *workload) *workload {
	small := *w
	small.unitSize = cellSessions
	if w.fleet == nil {
		small.unitSize = 1
	}
	return &small
}

// TestWorkloadFingerprintsRepeat: a pass over one input gives the same
// fingerprint every time, and a fleet's fingerprint does not depend on how
// many shards execute its cells.
func TestWorkloadFingerprintsRepeat(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			u := w.unit(17, 0, smallSize(w))
			a, b := runPass(u), runPass(u)
			if a.failed > 0 || b.failed > 0 {
				t.Fatalf("failed sessions: %v / %v", a.err, b.err)
			}
			if a.fingerprint != b.fingerprint {
				t.Fatalf("fingerprint changed between runs: %s vs %s", a.fingerprint, b.fingerprint)
			}
			if w.fleet == nil {
				return
			}
			sharded := *u.fleet
			sharded.Shards = 2
			if c := runPass(unit{fleet: &sharded}); c.fingerprint != a.fingerprint {
				t.Fatalf("Shards 2 fingerprint %s, Shards 1 %s", c.fingerprint, a.fingerprint)
			}
		})
	}
}

// TestCellDriverMatchesFleetRun: the traced and untraced cell drivers
// simulate a 16-session fleet exactly as fleet.Run does, for every fleet
// workload.
func TestCellDriverMatchesFleetRun(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.fleet == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := w.fleet(23, cellSessions)
			cfg.MaxRetained = 0
			want, err := fleet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				got, err := driveCell(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				for id, s := range want.Sessions {
					if !reflect.DeepEqual(s.Metrics, got[id]) {
						t.Fatalf("traced=%v session %d:\ndriver   %+v\nfleet.Run %+v", tr != nil, id, got[id], s.Metrics)
					}
				}
			}
		})
	}
}

// TestDecoratorLeavesPlayIdentical: behind the timing decorator every
// player model keeps its optional interfaces and produces the same
// session as core.Play. A decorator that dropped Abandoner or
// BandwidthReporter would change the abandoning models' chunks or the
// timeline's bandwidth estimates.
func TestDecoratorLeavesPlayIdentical(t *testing.T) {
	content := media.DramaShow()
	profile := trace.RandomWalk(5, media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute)
	for _, kind := range core.PlayerKinds() {
		t.Run(string(kind), func(t *testing.T) {
			spec := core.Spec{Content: content, Profile: profile, Player: kind}
			if kind == core.LLDefault || kind == core.LLL2A || kind == core.LLLoLP {
				spec.Live = experiments.LiveConfig()
			}
			want, err := core.Play(spec)
			if err != nil {
				t.Fatal(err)
			}
			model, allowed, err := core.BuildModel(kind, content, core.ManifestOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wrapped := newTracer().wrap(model, 0)
			for _, iface := range []reflect.Type{
				reflect.TypeOf((*abr.JointAlgorithm)(nil)).Elem(),
				reflect.TypeOf((*abr.PerTypeAlgorithm)(nil)).Elem(),
				reflect.TypeOf((*abr.Abandoner)(nil)).Elem(),
				reflect.TypeOf((*abr.BandwidthReporter)(nil)).Elem(),
			} {
				if a, b := reflect.TypeOf(model).Implements(iface), reflect.TypeOf(wrapped).Implements(iface); a != b {
					t.Fatalf("%v: model implements=%v, decorator implements=%v", iface, a, b)
				}
			}
			wspec := spec
			wspec.Model, wspec.Manifest.Combos = wrapped, allowed
			got, err := core.Play(wspec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Result, got.Result) || !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Fatalf("decorated session differs:\nplain     %+v\ndecorated %+v", want.Metrics, got.Metrics)
			}
		})
	}
}

// TestSoloDriverMatchesPlay: the solo driver, traced or not, reproduces
// core.Play for every solo-sweep variant.
func TestSoloDriverMatchesPlay(t *testing.T) {
	for i, spec := range soloSpecs(3, 0, 1) {
		want, err := core.Play(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			got, err := driveSolo(spec, i, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Metrics, got) {
				t.Fatalf("%s muxed=%v traced=%v: driver %+v, core.Play %+v", spec.Player, spec.Muxed, tr != nil, got, want.Metrics)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, want string }{
		{"demuxabr/internal/netsim.(*Uplink).alloc", "netsim.solver"},
		{"demuxabr/internal/netsim.(*Link).advance", "netsim.solver"},
		{"demuxabr/internal/netsim.(*Transfer).Done", "netsim.solver"},
		{"demuxabr/internal/netsim.NewLink", "netsim.solver"},
		{"demuxabr/internal/netsim.(*Engine).Step", "netsim.engine"},
		{"demuxabr/internal/netsim.(*calendarQueue).push", "netsim.engine"},
		{"demuxabr/internal/netsim.eventHeap.Less", "netsim.engine"},
		{"demuxabr/internal/netsim.(*Conn).Start.func1", "netsim.transport"},
		{"demuxabr/internal/abr/jointabr.(*MPC).search", "abr.jointabr"},
		{"demuxabr/internal/abr/lowlat.(*LoLP).SelectCombo", "abr.lowlat"},
		{"demuxabr/internal/abr.HighestAtMost", "abr"},
		{"demuxabr/internal/manifest/hls.ParseMaster", "manifest"},
		{"demuxabr/internal/manifest/dash.Generate", "manifest"},
		{"encoding/xml.(*Decoder).Token", "manifest"},
		{"demuxabr/internal/player.(*Session).startChunk.func2", "player"},
		{"demuxabr/internal/stats.(*Reservoir[go.shape.struct { demuxabr/internal/fleet.ID int }]).Add", "stats"},
		{"demuxabr/internal/fleet.runCell.func2", "fleet"},
		{"demuxabr/internal/newlayer.Thing", "newlayer"},
		{"demuxabr/internal/newlayer/sub.(*T).M", "newlayer"},
		{"runtime.mallocgc", "runtime.alloc"},
		{"runtime.growslice", "runtime.alloc"},
		{"runtime.gcBgMarkWorker", "runtime.gc"},
		{"runtime.scanobject", "runtime.gc"},
		{"runtime.(*mspan).sweep", "runtime.gc"},
		{"runtime.memmove", ""},
		{"sort.Slice", ""},
		{"main.main", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.fn); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// TestFoldChargesLibraryFramesToCaller: a sample goes to the first
// classified frame from the leaf, and shares sum to one.
func TestFoldChargesLibraryFramesToCaller(t *testing.T) {
	p := &profile{
		locations: map[uint64][]string{
			1: {"sort.insertionSort", "sort.Slice"}, // inlined pair, innermost first
			2: {"demuxabr/internal/cdnsim.(*Edge).request"},
			3: {"runtime.memclrNoHeapPointers"},
			4: {"runtime.mallocgc"},
			5: {"demuxabr/internal/player.(*Session).logSample"},
			6: {"main.main"},
		},
		samples: []sample{
			{locs: []uint64{1, 2, 6}, value: 30},
			{locs: []uint64{3, 4, 5, 6}, value: 50},
			{locs: []uint64{6}, value: 20},
		},
	}
	got := p.fold()
	want := map[string]float64{"cdnsim": 0.3, "runtime.alloc": 0.5, "other": 0.2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
}

// TestParseRealProfile decodes a profile written by runtime/pprof.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skipf("no samples in 300 ms (x=%v)", x)
	}
	sum := 0.0
	for _, share := range p.fold() {
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7, 1, 3}, [3]float64{1, 3, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{"sessions_per_s", "sessions/s", "higher", 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, b := range base {
			out[i] = b + d
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{shift(10), "improved"},
		{shift(-1), "no worse within bound"},
		{shift(-20), "regressed"},
	} {
		if got, _ := verdict(rate, base, c.head); got != c.want {
			t.Errorf("head %v: verdict %q, want %q", c.head[:2], got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _ := verdict(rate, noisy, noisy); got != "unresolved" {
		t.Errorf("noisy base: verdict %q, want unresolved", got)
	}
}

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesPrintedNames fails when the workloads and
// metrics BENCHMARK.json declares drift from what the command runs and
// prints.
func TestBenchmarkJSONMatchesPrintedNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command %v, want %v", bf.Command, want)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	all, _ := selectWorkloads("all")
	if !reflect.DeepEqual(names, all) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, all)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end\n  file %+v\n  code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from the code's list (%d vs %d entries)", len(bf.PerLayer), len(perLayer()))
	}

	w, _ := workloadByName("solo-sweep")
	timed, err := runTimed(tiny(w), 17, time.Millisecond, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(tiny(w), 17, time.Millisecond, 1, t.TempDir(), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode    string
		printed map[string]value
		defs    []metricDef
	}{{"-trace 0", timed.Metrics, bf.EndToEnd}, {"-trace 1", traced.Metrics, bf.PerLayer}} {
		var got, want []string
		for name := range c.printed {
			got = append(got, name)
		}
		for _, d := range c.defs {
			want = append(want, d.Name)
			if v := c.printed[d.Name]; v.Unit != d.Unit {
				t.Errorf("%s prints %s in %q, BENCHMARK.json says %q", c.mode, d.Name, v.Unit, d.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s prints %v\nBENCHMARK.json lists %v", c.mode, got, want)
		}
	}
	if !timed.Correct || !traced.Correct {
		t.Errorf("tiny runs not correct: timed %v, traced %v", timed.Correct, traced.Correct)
	}
}
