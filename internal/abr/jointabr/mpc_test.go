package jointabr

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

func feedMPC(m *MPC, bps float64, n int) {
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		m.OnStart(abr.TransferInfo{At: at})
		m.OnProgress(abr.TransferInfo{Bytes: bps / 8, Duration: time.Second})
		at += time.Second
		m.OnComplete(abr.TransferInfo{Duration: time.Second, At: at})
	}
}

func TestMPCStartsLowWithoutEstimate(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(hsub(c), 5)
	got := m.SelectCombo(abr.State{ChunkDuration: 5 * time.Second})
	if got.String() != "V1+A1" {
		t.Errorf("initial selection = %s, want V1+A1", got)
	}
}

func TestMPCMatchesBandwidth(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(hsub(c), 5)
	feedMPC(m, 1e6, 6)
	deep := m.SelectCombo(abr.State{
		VideoBuffer: 20 * time.Second, AudioBuffer: 20 * time.Second,
		ChunkDuration: 5 * time.Second,
	})
	// With a deep buffer MPC may ride the marginally-unsustainable V4+A2
	// (that is what the buffer is for) but no higher.
	if deep.String() != "V3+A2" && deep.String() != "V4+A2" {
		t.Errorf("deep-buffer selection at 1 Mbps = %s, want V3+A2 or V4+A2", deep)
	}
	// With a thin buffer the sustainability bias must hold it at V3+A2
	// (669 Kbps), the highest rung 1 Mbps sustains.
	m2 := NewMPC(hsub(c), 5)
	feedMPC(m2, 1e6, 6)
	thin := m2.SelectCombo(abr.State{
		VideoBuffer: 6 * time.Second, AudioBuffer: 6 * time.Second,
		ChunkDuration: 5 * time.Second,
	})
	if thin.String() != "V3+A2" {
		t.Errorf("thin-buffer selection at 1 Mbps = %s, want V3+A2", thin)
	}
}

func TestMPCAvoidsPredictedRebuffering(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(hsub(c), 5)
	feedMPC(m, 3e6, 6)
	// Ample bandwidth but an empty buffer: the lookahead must not jump to
	// a combination whose first download outruns the buffer by much.
	got := m.SelectCombo(abr.State{ChunkDuration: 5 * time.Second})
	if got.DeclaredBitrate() > media.Kbps(2300) {
		t.Errorf("empty-buffer selection = %s, too aggressive", got)
	}
	// With a deep buffer it can afford the top rung.
	got = m.SelectCombo(abr.State{
		VideoBuffer: 30 * time.Second, AudioBuffer: 30 * time.Second,
		ChunkDuration: 5 * time.Second,
	})
	if got.DeclaredBitrate() < media.Kbps(2000) {
		t.Errorf("deep-buffer selection = %s, too conservative at 3 Mbps", got)
	}
}

func TestMPCSelectsOnlyAllowed(t *testing.T) {
	c := media.DramaShow()
	allowed := media.HSub(c)
	m := NewMPC(abr.NewAllowed(allowed), 4)
	in := func(cb media.Combo) bool {
		for _, a := range allowed {
			if a.String() == cb.String() {
				return true
			}
		}
		return false
	}
	for _, bw := range []float64{200e3, 700e3, 1.5e6, 6e6} {
		feedMPC(m, bw, 4)
		for buf := time.Duration(0); buf <= 30*time.Second; buf += 10 * time.Second {
			got := m.SelectCombo(abr.State{VideoBuffer: buf, AudioBuffer: buf, ChunkDuration: 5 * time.Second})
			if !in(got) {
				t.Fatalf("selection %s not allowed (bw %v, buf %v)", got, bw, buf)
			}
		}
	}
}

func TestMPCEndToEnd(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(1300)))
	res, err := player.Run(link, player.Config{Content: c, Model: NewMPC(hsub(c), 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ended {
		t.Fatal("did not finish")
	}
	if res.RebufferTime() > 3*time.Second {
		t.Errorf("rebuffer = %v on a steady 1.3 Mbps link", res.RebufferTime())
	}
	if res.Switches(media.Video)+res.Switches(media.Audio) > 12 {
		t.Errorf("switch churn: %d/%d", res.Switches(media.Video), res.Switches(media.Audio))
	}
}

func TestMPCDefaults(t *testing.T) {
	c := media.DramaShow()
	m := NewMPC(hsub(c), 0)
	if m.Horizon != 5 || m.Name() != "mpc-joint" || len(m.Allowed()) != 6 {
		t.Errorf("defaults wrong: %+v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty allowed should panic")
		}
	}()
	NewMPC(abr.NewAllowed(nil), 5)
}

// fullSearch is the plain recursion MPC.search replaced: it enumerates every
// combination sequence of the given depth. It is the oracle the branch and
// bound must match bit for bit.
func fullSearch(m *MPC, buffer float64, prevIdx, depth int, est, chunkSecs float64) (int, float64) {
	bestIdx, bestVal := 0, math.Inf(-1)
	for i, cb := range m.allowed {
		downloadSecs := float64(cb.DeclaredBitrate()) * chunkSecs / est
		b := buffer - downloadSecs
		rebuffer := 0.0
		if b < 0 {
			rebuffer = -b
			b = 0
		}
		b += chunkSecs
		val := m.utilities[i] - m.RebufferPenalty*rebuffer
		if drain := downloadSecs - chunkSecs; drain > 0 {
			// Sustainability matters in proportion to how close the
			// projected buffer is to empty: with a deep buffer a transient
			// drain is exactly what the buffer is for.
			const comfort = 20.0 // seconds
			urgency := (comfort - b) / comfort
			if urgency > 0 {
				val -= m.DrainPenalty * drain * urgency
			}
		}
		if prevIdx >= 0 {
			val -= m.SwitchPenalty * math.Abs(m.utilities[i]-m.utilities[prevIdx])
		}
		if depth > 1 {
			_, future := fullSearch(m, b, i, depth-1, est, chunkSecs)
			val += future
		}
		if val > bestVal {
			bestVal = val
			bestIdx = i
		}
	}
	return bestIdx, bestVal
}

// mpcState is one decision's input: the minimum buffer, the bandwidth
// estimate and the chunk duration in seconds, and the previous combination.
type mpcState struct {
	buffer, est, chunkSecs float64
	prev                   int
}

// recordingMPC records the input of every decision its MPC searches.
type recordingMPC struct {
	*MPC
	states []mpcState
}

func (r *recordingMPC) SelectCombo(st abr.State) media.Combo {
	if est, ok := r.meter.Estimate(); ok && est > 0 {
		chunkSecs := st.ChunkDuration.Seconds()
		if chunkSecs <= 0 {
			chunkSecs = 5
		}
		r.states = append(r.states, mpcState{st.MinBuffer().Seconds(), float64(est), chunkSecs, r.lastIdx})
	}
	return r.MPC.SelectCombo(st)
}

// recordedMPCStates plays DramaShow's H_sub through MPC over seeded
// random-walk traces (400–2500 Kbps, 4 s steps, one minute) and returns the
// input of every searched decision.
func recordedMPCStates(t testing.TB, sessions int) []mpcState {
	t.Helper()
	c := media.DramaShow()
	var states []mpcState
	for s := 0; s < sessions; s++ {
		rec := &recordingMPC{MPC: NewMPC(hsub(c), 5)}
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.RandomWalk(int64(s+1), media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute))
		if _, err := player.Run(link, player.Config{Content: c, Model: rec}); err != nil {
			t.Fatal(err)
		}
		states = append(states, rec.states...)
	}
	return states
}

func TestMPCSearchMatchesFullEnumeration(t *testing.T) {
	c := media.DramaShow()
	check := func(t *testing.T, m *MPC, s mpcState) {
		t.Helper()
		gotIdx, gotVal := m.plan(s.buffer, s.prev, s.est, s.chunkSecs)
		wantIdx, wantVal := fullSearch(m, s.buffer, s.prev, m.Horizon, s.est, s.chunkSecs)
		if gotIdx != wantIdx || math.Float64bits(gotVal) != math.Float64bits(wantVal) {
			t.Fatalf("horizon %d, %+v: search (%d, %v), full enumeration (%d, %v)",
				m.Horizon, s, gotIdx, gotVal, wantIdx, wantVal)
		}
	}
	// randomStates draws states over the whole input range the player can
	// produce, an empty buffer included.
	randomStates := func(seed int64, count, n int) []mpcState {
		rng := rand.New(rand.NewSource(seed))
		chunks := []float64{1, 2, 4, 5, 6.006}
		states := make([]mpcState, count)
		for k := range states {
			buffer := rng.Float64() * 40
			if k%10 == 0 {
				buffer = 0
			}
			states[k] = mpcState{
				buffer:    buffer,
				est:       float64(media.Kbps(100 + rng.Float64()*8900)),
				chunkSecs: chunks[rng.Intn(len(chunks))],
				prev:      rng.Intn(n+1) - 1,
			}
		}
		return states
	}

	t.Run("recorded", func(t *testing.T) {
		states := recordedMPCStates(t, 14)
		if len(states) < 500 {
			t.Fatalf("recorded %d decisions, want a few hundred", len(states))
		}
		m := NewMPC(hsub(c), 5)
		for _, s := range states {
			check(t, m, s)
		}
	})
	t.Run("random", func(t *testing.T) {
		for _, ladder := range []struct {
			name       string
			allowed    []media.Combo
			maxHorizon int
		}{{"hsub", media.HSub(c), 6}, {"hall", media.HAll(c), 4}} {
			m := NewMPC(abr.NewAllowed(ladder.allowed), 1)
			for k, s := range randomStates(42, 3000, len(ladder.allowed)) {
				m.Horizon = 1 + k%ladder.maxHorizon
				check(t, m, s)
			}
		}
	})
	t.Run("retuned", func(t *testing.T) {
		// The bound table is built for the first decision's Horizon and
		// SwitchPenalty; later decisions under other values must rebuild it.
		m := NewMPC(hsub(c), 5)
		states := randomStates(7, 400, len(m.allowed))
		for k, s := range states {
			switch k {
			case 100:
				m.SwitchPenalty = 0.5
			case 200:
				m.Horizon = 3
			case 300:
				m.Horizon, m.SwitchPenalty = 6, 4
			}
			check(t, m, s)
		}
	})
	t.Run("infinite-rebuffer-penalty", func(t *testing.T) {
		// Inf·0 makes every value NaN or -Inf; enumeration then keeps
		// index 0, and so must the search.
		m := NewMPC(hsub(c), 3)
		m.RebufferPenalty = math.Inf(1)
		for _, s := range randomStates(13, 100, len(m.allowed)) {
			check(t, m, s)
		}
	})
	t.Run("negative-drain-penalty", func(t *testing.T) {
		// A drain reward breaks the bound, so the search must not prune.
		m := NewMPC(hsub(c), 5)
		m.DrainPenalty = -3
		for _, s := range randomStates(11, 300, len(m.allowed)) {
			check(t, m, s)
			if m.prune {
				t.Fatal("pruning on with a negative drain penalty")
			}
		}
	})
}

// warmMPCs returns one MPC per recorded state, each with a meter whose
// estimate is that state's, its previous combination set, and one
// SelectCombo made so the bound table and the meter's sort are built.
func warmMPCs(t testing.TB, states []mpcState) ([]*MPC, []abr.State) {
	t.Helper()
	c := media.DramaShow()
	models := make([]*MPC, len(states))
	inputs := make([]abr.State, len(states))
	for k, s := range states {
		m := NewMPC(hsub(c), 5)
		m.OnStart(abr.TransferInfo{})
		m.OnProgress(abr.TransferInfo{Bytes: s.est / 8})
		m.OnComplete(abr.TransferInfo{At: time.Second})
		if est, _ := m.BandwidthEstimate(); float64(est) != s.est {
			t.Fatalf("meter estimate %v, want %v", est, s.est)
		}
		buf := time.Duration(s.buffer * float64(time.Second))
		inputs[k] = abr.State{VideoBuffer: buf, AudioBuffer: buf, ChunkDuration: time.Duration(s.chunkSecs * float64(time.Second))}
		m.SelectCombo(inputs[k])
		m.lastIdx = s.prev
		models[k] = m
	}
	return models, inputs
}

func TestMPCSelectComboAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("warm decision", "allocs")
	models, inputs := warmMPCs(t, recordedMPCStates(t, 2))
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		models[k%len(models)].SelectCombo(inputs[k%len(inputs)])
		k++
	})
	if allocs > pin {
		t.Errorf("warm SelectCombo makes %v allocations, pinned at %v", allocs, pin)
	}
}

// BenchmarkMPCSelectCombo times one decision over the states recorded from
// fourteen random-walk sessions, cycling through them.
func BenchmarkMPCSelectCombo(b *testing.B) {
	states := recordedMPCStates(b, 14)
	models, inputs := warmMPCs(b, states)
	prev := make([]int, len(states))
	for k, s := range states {
		prev[k] = s.prev
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(models)
		models[k].lastIdx = prev[k]
		models[k].SelectCombo(inputs[k])
	}
}

// TestMPCBoundTableBuiltOnce: NewMPC builds the bound table, so neither a
// new model's first decision nor that of a copy of one (the models
// core.ParsedManifest.NewModel makes) allocates, and the copies share the
// table. A copy whose Horizon or SwitchPenalty is overridden builds a
// table of its own and leaves the shared one as it was.
func TestMPCBoundTableBuiltOnce(t *testing.T) {
	pins := ledger.For(t)
	c := media.DramaShow()
	allowed := hsub(c)
	st := abr.State{VideoBuffer: 12 * time.Second, AudioBuffer: 12 * time.Second, ChunkDuration: c.ChunkDuration}
	warmed := func(m *MPC) *MPC {
		feedMPC(m, 1.5e6, 3)
		m.BandwidthEstimate() // sorts the meter's window, in the model
		return m
	}
	proto := NewMPC(allowed, 0)
	const runs = 20
	var models []*MPC // AllocsPerRun makes one run more than runs
	for range runs + 1 {
		models = append(models, warmed(NewMPC(allowed, 0)))
	}
	for range runs + 1 {
		cp := *proto
		models = append(models, warmed(&cp))
	}
	for i, row := range []string{"new model", "copied model"} {
		pin := pins.Bound(row, "allocs")
		k := i * (runs + 1)
		if allocs := testing.AllocsPerRun(runs, func() { models[k].SelectCombo(st); k++ }); allocs > pin {
			t.Errorf("a %s's first decision makes %v allocations, pinned at %v", row, allocs, pin)
		}
	}
	shared := slices.Clone(proto.bound)
	for _, m := range models[runs+1:] {
		if &m.bound[0] != &proto.bound[0] {
			t.Fatal("a copy of a new model built a table of its own")
		}
	}
	for _, retune := range []func(*MPC){
		func(m *MPC) { m.SwitchPenalty = 0.5 },
		func(m *MPC) { m.Horizon = 3 },
	} {
		cp := *proto
		retune(&cp)
		warmed(&cp).SelectCombo(st)
		if &cp.bound[0] == &proto.bound[0] {
			t.Fatal("a copy with overridden parameters kept the shared table")
		}
	}
	if !slices.Equal(proto.bound, shared) {
		t.Error("a retuned copy wrote to the shared table")
	}
}
