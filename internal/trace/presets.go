package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"demuxabr/internal/media"
)

// Presets matching the network conditions of the paper's experiments.

// Fig2Bandwidth is the fixed 900 Kbps link of the ExoPlayer DASH
// experiments (Fig. 2).
func Fig2Bandwidth() Profile { return Fixed(media.Kbps(900)) }

// Fig3VaryingAvg600 is the time-varying profile of the ExoPlayer HLS
// experiment (Fig. 3): average exactly 600 Kbps with sustained lows.
//
// The paper does not publish its trace, only "time-varying, with the
// average as 600 Kbps" and the consequence: with audio pinned at A3
// (384 Kbps), even V1+A3 consumes 495 Kbps, so low-bandwidth periods must
// drain the buffer faster than high periods can refill it (the buffer is
// capped), producing the ~5 stalls / ~37 s of rebuffering of Fig. 3(b). A
// 20 s/1.6 Mbps + 40 s/100 Kbps cycle has that property: each 40 s low
// drains slightly more than a full 30 s buffer of V1+A3 content, yielding
// one stall per cycle (5 cycles over the 5-minute session).
func Fig3VaryingAvg600() Profile {
	return SquareWave(media.Kbps(1600), media.Kbps(100), 20*time.Second, 40*time.Second)
}

// Fig4aBandwidth is the constant 1 Mbps link of the first Shaka experiment
// (Fig. 4(a)). 1 Mbps delivers 15.6 KB per 0.125 s interval — below Shaka's
// 16 KB validity filter, so no throughput sample is ever accepted.
func Fig4aBandwidth() Profile { return Fixed(media.Kbps(1000)) }

// Fig4bBimodal600 is the dynamic profile of the second Shaka experiment
// (Fig. 4(b)): alternating 1.1 Mbps for 4 s and 350 Kbps for 8 s (average
// exactly 600 Kbps). Only solo-transfer intervals of the high phase move
// at least 16 KB per 0.125 s (1.1 Mbps ⇒ 17.2 KB), so Shaka's estimate
// converges toward 1.1 Mbps while the true average is 600 Kbps — and
// 0.95 × 1.1 Mbps lands exactly in the V3+A3 (1032 Kbps) selection band
// the paper reports.
func Fig4bBimodal600() Profile {
	return SquareWave(media.Kbps(1100), media.Kbps(350), 4*time.Second, 8*time.Second)
}

// Fig5Bandwidth is the fixed 700 Kbps link of the dash.js experiment (Fig 5).
func Fig5Bandwidth() Profile { return Fixed(media.Kbps(700)) }

// ExoHLSFixedBandwidth is the 5 Mbps link of the second ExoPlayer HLS
// experiment (audio pinned to lowest-quality A1 despite ample bandwidth).
func ExoHLSFixedBandwidth() Profile { return Fixed(media.Kbps(5000)) }

// ReadCSV parses a profile of "seconds,kbps" rows, with an optional
// trailing "#cycle,<seconds>" comment recording the cycle period. Blank
// lines are skipped.
func ReadCSV(r io.Reader) (*Steps, error) {
	sc := bufio.NewScanner(r)
	var seq []Step
	var cycle time.Duration
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(text, "#cycle,"); ok {
			secs, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad cycle: %w", line, err)
			}
			cycle = time.Duration(secs * float64(time.Second))
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue
		}
		at, rate, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("trace: line %d: want 'seconds,kbps', got %q", line, text)
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(at), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", line, err)
		}
		kbps, err := strconv.ParseFloat(strings.TrimSpace(rate), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad rate: %w", line, err)
		}
		seq = append(seq, Step{At: time.Duration(secs * float64(time.Second)), Rate: media.Kbps(kbps)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewSteps(seq, cycle)
}

// Named returns a preset profile by name — the registry behind CLI flags.
// Available names: fig2 (fixed 900 Kbps), fig3 (varying avg 600), fig4a
// (fixed 1 Mbps), fig4b (bimodal avg 600), fig5 (fixed 700), exohls-5m
// (fixed 5 Mbps), lte (mobile walk with outages).
func Named(name string) (Profile, error) {
	switch name {
	case "fig2":
		return Fig2Bandwidth(), nil
	case "fig3":
		return Fig3VaryingAvg600(), nil
	case "fig4a":
		return Fig4aBandwidth(), nil
	case "fig4b":
		return Fig4bBimodal600(), nil
	case "fig5":
		return Fig5Bandwidth(), nil
	case "exohls-5m":
		return ExoHLSFixedBandwidth(), nil
	case "lte":
		return LTEProfile(42, 4*time.Second, time.Minute), nil
	default:
		return nil, fmt.Errorf("trace: unknown profile %q (have %v)", name, Names())
	}
}

// Names lists the preset profile names.
func Names() []string {
	return []string{"fig2", "fig3", "fig4a", "fig4b", "fig5", "exohls-5m", "lte"}
}
