package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// ResilienceSeed keys every resilience experiment's fault plan, so the
// sweep and the policy comparison face the identical failure sequence.
const ResilienceSeed = 1009

// ResiliencePoint is one (fault rate, player) cell of the resilience sweep.
type ResiliencePoint struct {
	Rate float64
	// RateIndex is the position of Rate in the sweep's ordered rate list;
	// PrintResilience joins columns on it.
	RateIndex int
	Outcome   Outcome
}

// DefaultFaultRates spans clean operation to heavy origin instability.
func DefaultFaultRates() []float64 {
	return []float64{0, 0.005, 0.01, 0.02, 0.05}
}

// ResilienceSweep runs every player model under each per-segment fault
// rate on the varying-600 trace, all with the default robustness policy —
// who degrades how, under identical failure sequences. parallel is the
// worker count (0 = GOMAXPROCS, 1 = serial). Fault plans are hash-seeded
// per (track, chunk), so the points are byte-identical at any worker
// count; they come back in the serial order: rates outer, models inner.
// Sessions that do not finish are kept: an abandoned or aborted session IS
// the measurement when faults are in play.
func ResilienceSweep(rates []float64, parallel int) ([]ResiliencePoint, error) {
	content := media.DramaShow()
	specs, allowed, err := modelSpecs(content)
	if err != nil {
		return nil, err
	}
	pol := faults.DefaultPolicy()
	return runpool.Map(parallel, len(rates)*len(specs), func(i int) (ResiliencePoint, error) {
		ri, mi := i/len(specs), i%len(specs)
		s, err := core.Play(core.Spec{
			Content:    content,
			Profile:    trace.Fig3VaryingAvg600(),
			Model:      specs[mi].build(),
			Manifest:   core.ManifestOptions{Combos: allowed},
			Faults:     &faults.Plan{Seed: ResilienceSeed, Rate: rates[ri]},
			Robustness: &pol,
		})
		if err != nil {
			return ResiliencePoint{}, fmt.Errorf("resilience rate %v: %w", rates[ri], err)
		}
		return ResiliencePoint{Rate: rates[ri], RateIndex: ri, Outcome: *s}, nil
	})
}

// PrintResilience renders the sweep as matrices over fault rate: session
// outcome with QoE, rebuffering, and the repair work performed.
func PrintResilience(w io.Writer, points []ResiliencePoint) {
	ncols := 0
	for _, p := range points {
		if p.RateIndex+1 > ncols {
			ncols = p.RateIndex + 1
		}
	}
	rates := make([]float64, ncols)
	var models []string
	seen := map[string]bool{}
	cells := map[string][]Outcome{}
	for _, p := range points {
		rates[p.RateIndex] = p.Rate
		if !seen[p.Outcome.Model] {
			seen[p.Outcome.Model] = true
			models = append(models, p.Outcome.Model)
			cells[p.Outcome.Model] = make([]Outcome, ncols)
		}
		cells[p.Outcome.Model][p.RateIndex] = p.Outcome
	}
	write := func(title string, value func(Outcome) string) {
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "Model")
		for _, r := range rates {
			fmt.Fprintf(tw, "\t%.1f%%", r*100)
		}
		fmt.Fprintln(tw)
		for _, m := range models {
			fmt.Fprint(tw, m)
			for i := range rates {
				fmt.Fprintf(tw, "\t%s", value(cells[m][i]))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	write("QoE score by per-segment fault rate (abort = session cut short):", func(o Outcome) string {
		if o.Result.Aborted {
			return "abort"
		}
		return fmt.Sprintf("%.2f", o.Metrics.Score)
	})
	fmt.Fprintln(w)
	write("Rebuffering seconds by fault rate:", func(o Outcome) string {
		return fmt.Sprintf("%.1f", o.Result.RebufferTime().Seconds())
	})
	fmt.Fprintln(w)
	write("Repair work (faults/retries/failovers) by fault rate:", func(o Outcome) string {
		return fmt.Sprintf("%d/%d/%d", len(o.Result.Faults), o.Result.Retries, len(o.Result.Failovers))
	})
}

// PolicyResilience is the best-practice player at a 1% per-segment fault
// rate on the varying-600 trace, with the robustness policy on versus off
// — the paper's "best practices" extended to the error path: the same
// player under the same failure sequence either finishes or dies,
// depending only on its download-error handling.
func PolicyResilience() (on, off Outcome, err error) {
	pol := faults.DefaultPolicy()
	run := func(robustness *faults.Policy) (Outcome, error) {
		s, err := core.Play(core.Spec{
			Content:    media.DramaShow(),
			Profile:    trace.Fig3VaryingAvg600(),
			Player:     core.BestPractice,
			Faults:     &faults.Plan{Seed: ResilienceSeed, Rate: 0.01},
			Robustness: robustness,
		})
		if err != nil {
			return Outcome{}, err
		}
		return *s, nil
	}
	if on, err = run(&pol); err != nil {
		return Outcome{}, Outcome{}, err
	}
	if off, err = run(nil); err != nil {
		return Outcome{}, Outcome{}, err
	}
	return on, off, nil
}

// PrintPolicyResilience renders the on/off comparison.
func PrintPolicyResilience(w io.Writer, on, off Outcome) {
	row := func(label string, o Outcome) {
		status := "completed"
		if o.Result.Aborted {
			status = "ABORTED (" + o.Result.AbortReason + ")"
		} else if !o.Result.Ended {
			status = "did not finish"
		}
		fmt.Fprintf(w, "  %-10s %s\n", label+":", status)
		fmt.Fprintf(w, "             qoe %.2f, %d stalls (%.1fs), %d faults, %d retries, %d failovers, %.1f KB wasted\n",
			o.Metrics.Score, len(o.Result.Stalls), o.Result.RebufferTime().Seconds(),
			len(o.Result.Faults), o.Result.Retries, len(o.Result.Failovers),
			float64(o.Result.WastedFaultBytes())/1000)
	}
	fmt.Fprintf(w, "best-practice player, 1%% per-segment faults, varying-600 trace (seed %d):\n", ResilienceSeed)
	row("policy on", on)
	row("policy off", off)
}
