package core_test

import (
	"fmt"
	"log"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// ExamplePlay streams the paper's Table 1 content with the best-practice
// player over a steady link and prints the headline QoE facts.
func ExamplePlay() {
	sess, err := core.Play(core.Spec{
		Profile: trace.Fixed(media.Kbps(900)),
		Player:  core.BestPractice,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model:", sess.Model)
	fmt.Println("stalls:", sess.Metrics.StallCount)
	fmt.Println("off-manifest chunks:", sess.Metrics.OffManifest)
	fmt.Println("dominant combos within H_sub:", sess.Metrics.DistinctCombos <= 6)
	// Output:
	// model: bestpractice
	// stalls: 0
	// off-manifest chunks: 0
	// dominant combos within H_sub: true
}

// ExamplePlay_shakaPathology reproduces the Fig 4(a) pathology in four
// lines: on a constant 1 Mbps link no throughput interval reaches Shaka's
// 16 KB filter, so the 500 Kbps default sticks and V2+A2 streams. The
// session keeps its per-sample timeline to read the last sample.
func ExamplePlay_shakaPathology() {
	sess, err := core.Play(core.Spec{
		Profile:      trace.Fixed(media.Kbps(1000)),
		Player:       core.Shaka,
		Manifest:     core.ManifestOptions{Combos: media.HAll(media.DramaShow())},
		KeepTimeline: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	last := sess.Result.Timeline[len(sess.Result.Timeline)-1]
	fmt.Printf("estimate: %v\n", last.Estimate)
	fmt.Printf("selection: %s+%s\n", last.Video.ID, last.Audio.ID)
	// Output:
	// estimate: 500Kbps
	// selection: V2+A2
}

// ExampleBuildModel shows how models are constructed from manifests: the
// information each player sees is exactly what its protocol carries.
func ExampleBuildModel() {
	content := media.DramaShow()
	model, allowed, err := core.BuildModel(core.BestPractice, content, core.ManifestOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model:", model.Name())
	fmt.Println("allowed combinations:", len(allowed))
	// Output:
	// model: bestpractice
	// allowed combinations: 6
}
