package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// SweepPoint is one cell of a bandwidth sweep: a player model's outcome at
// a fixed link rate.
type SweepPoint struct {
	Kbps float64
	// KbpsIndex is the position of Kbps in the sweep's ordered bandwidth
	// list. PrintSweep joins cells on this index rather than on the raw
	// float, so near-equal bandwidths can't silently merge or split
	// columns.
	KbpsIndex int
	Outcome   Outcome
}

// DefaultSweepKbps spans the drama show's operating range: below the
// cheapest combination (V1+A1, 239 Kbps average) up to beyond the most
// expensive (V6+A3, 3112 Kbps average).
func DefaultSweepKbps() []float64 {
	return []float64{400, 600, 900, 1300, 2000, 3000, 4500}
}

// BandwidthSweep runs every player model at each fixed bandwidth — the
// crossover analysis: who wins where across the operating range — with the
// given worker count (0 = GOMAXPROCS, 1 = serial). The manifests are parsed
// once for the whole sweep; each (bandwidth, model) job builds only its own
// model and engine, and the points come back in the serial order:
// bandwidths outer, models inner.
func BandwidthSweep(kbps []float64, parallel int) ([]SweepPoint, error) {
	content := media.DramaShow()
	specs, allowed, err := modelSpecs(content)
	if err != nil {
		return nil, err
	}
	return runpool.Map(parallel, len(kbps)*len(specs), func(i int) (SweepPoint, error) {
		ki, mi := i/len(specs), i%len(specs)
		k := kbps[ki]
		out, err := playToEnd(core.Spec{Content: content, Profile: trace.Fixed(media.Kbps(k)), Model: specs[mi].build(), Manifest: core.ManifestOptions{Combos: allowed}})
		if err != nil {
			return SweepPoint{}, fmt.Errorf("sweep %v Kbps: %w", k, err)
		}
		return SweepPoint{Kbps: k, KbpsIndex: ki, Outcome: out}, nil
	})
}

// PrintSweep renders the sweep as a QoE matrix (rows: models, columns:
// bandwidths) followed by a rebuffering matrix. Columns join on
// SweepPoint.KbpsIndex; the Kbps value only labels the header.
func PrintSweep(w io.Writer, points []SweepPoint) {
	ncols := 0
	for _, p := range points {
		if p.KbpsIndex+1 > ncols {
			ncols = p.KbpsIndex + 1
		}
	}
	kbps := make([]float64, ncols)
	var models []string
	seenM := map[string]bool{}
	cells := map[string][]Outcome{}
	for _, p := range points {
		kbps[p.KbpsIndex] = p.Kbps
		if !seenM[p.Outcome.Model] {
			seenM[p.Outcome.Model] = true
			models = append(models, p.Outcome.Model)
			cells[p.Outcome.Model] = make([]Outcome, ncols)
		}
		cells[p.Outcome.Model][p.KbpsIndex] = p.Outcome
	}
	write := func(title string, value func(Outcome) string) {
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "Model")
		for _, k := range kbps {
			fmt.Fprintf(tw, "\t%.0fK", k)
		}
		fmt.Fprintln(tw)
		for _, m := range models {
			fmt.Fprint(tw, m)
			for i := range kbps {
				fmt.Fprintf(tw, "\t%s", value(cells[m][i]))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	write("QoE score by link bandwidth:", func(o Outcome) string {
		return fmt.Sprintf("%.2f", o.Metrics.Score)
	})
	fmt.Fprintln(w)
	write("Rebuffering seconds by link bandwidth:", func(o Outcome) string {
		return fmt.Sprintf("%.1f", o.Metrics.RebufferTime.Seconds())
	})
}
