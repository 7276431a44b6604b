package experiments

import (
	"bytes"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/report"
	"demuxabr/internal/trace"
)

// TestDeterministicReport is the replay-determinism regression test the
// vetabr suite exists to protect: one full scenario — seeded random-walk
// trace, every player model, full JSON report — run repeatedly must
// produce byte-identical output. Any wall-clock read, global randomness,
// or map-ordered serialization anywhere in the stack shows up here as a
// byte diff.
func TestDeterministicReport(t *testing.T) {
	const seed = 7
	render := func() []byte {
		content := media.DramaShow()
		profile := trace.RandomWalk(seed, media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute)
		models, allowed, err := buildModels(content)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, m := range models {
			out, err := playToEnd(core.Spec{Content: content, Profile: profile, Model: m, Manifest: core.ManifestOptions{Combos: allowed}, KeepTimeline: true})
			if err != nil {
				t.Fatal(err)
			}
			doc := report.FromResult(content.Name, out.Result, out.Metrics)
			// The per-sample log carries the buffers and estimates the
			// comparison must cover.
			if len(doc.Timeline) == 0 {
				t.Fatalf("%s: report has no timeline", m.Name())
			}
			if err := doc.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	first := render()
	if len(first) == 0 {
		t.Fatal("empty report")
	}
	for i := 0; i < 2; i++ {
		if again := render(); !bytes.Equal(first, again) {
			t.Fatalf("run %d produced different report bytes (len %d vs %d): simulator or serialization is non-deterministic", i+2, len(again), len(first))
		}
	}
}

// TestParallelEquivalenceBandwidthSweep is the runpool determinism gate
// for the sweep fleet: the rendered report at -parallel 1 (the literal
// serial loop) and at GOMAXPROCS workers must be byte-identical. Ordered
// collection plus per-job engines is exactly what makes this hold; any
// shared mutable state or completion-order dependence shows up here.
func TestParallelEquivalenceBandwidthSweep(t *testing.T) {
	kbps := []float64{600, 2000}
	render := func(parallel int) []byte {
		points, err := BandwidthSweep(kbps, parallel)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		PrintSweep(&buf, points)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(0)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel sweep diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestParallelEquivalenceSeedSweep: same gate for the seed fleet, whose
// aggregation (per-model sample vectors in seed order) is the most
// order-sensitive collection in the repo.
func TestParallelEquivalenceSeedSweep(t *testing.T) {
	render := func(parallel int) []byte {
		summaries, err := SeedSweep(3, parallel)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		PrintSeedSummaries(&buf, summaries)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(0)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel seed sweep diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

// TestParallelEquivalenceCompareAndAblate covers the remaining fleet
// runners at a cheap scenario.
func TestParallelEquivalenceCompareAndAblate(t *testing.T) {
	s := Scenarios()[0]
	serialOut, err := Compare(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelOut, err := Compare(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var serialBuf, parallelBuf bytes.Buffer
	PrintOutcomes(&serialBuf, s.Name, serialOut)
	PrintOutcomes(&parallelBuf, s.Name, parallelOut)
	if !bytes.Equal(serialBuf.Bytes(), parallelBuf.Bytes()) {
		t.Fatalf("parallel Compare diverges from serial:\n%s\nvs\n%s", serialBuf.Bytes(), parallelBuf.Bytes())
	}
	serialAb, err := Ablate(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallelAb, err := Ablate(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialAb) != len(parallelAb) {
		t.Fatalf("ablation counts differ: %d vs %d", len(serialAb), len(parallelAb))
	}
	for name, o := range serialAb {
		p, ok := parallelAb[name]
		if !ok {
			t.Fatalf("parallel ablation missing %q", name)
		}
		if o.Metrics != p.Metrics {
			t.Errorf("ablation %q: serial metrics %+v != parallel %+v", name, o.Metrics, p.Metrics)
		}
	}
}
