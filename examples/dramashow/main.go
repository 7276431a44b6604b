// Dramashow reruns the paper's head-to-head: the three studied player
// models (ExoPlayer in both protocol modes, Shaka, dash.js) and the §4
// best-practice design all stream the Table 1 content under each of the
// paper's network conditions, printing one comparison table per scenario.
//
// This is the summary view of Figures 2-5: every pathology shows up as a
// row — pinned audio, off-manifest selections, stalls from bandwidth
// mis-estimation, selection churn, and buffer imbalance.
package main

import (
	"fmt"
	"log"
	"os"

	"demuxabr/internal/experiments"
)

func main() {
	for _, s := range experiments.Scenarios() {
		outcomes, err := experiments.Compare(s, 0)
		if err != nil {
			log.Fatal(err)
		}
		experiments.PrintOutcomes(os.Stdout, "Scenario: "+s.Name, outcomes)
		fmt.Println()
	}
	fmt.Println("Reading the tables:")
	fmt.Println("  - exoplayer-hls pins audio (A switches = 0) and strays off-manifest;")
	fmt.Println("  - shaka under/over-estimates on links its 16 KB filter cannot sample;")
	fmt.Println("  - dashjs churns selections and lets the A/V buffers diverge;")
	fmt.Println("  - bestpractice stays on the allowed pairings with balanced buffers.")
}
