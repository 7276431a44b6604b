package stats

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"demuxabr/internal/ledger"
)

// randomSamples draws n values in roughly [0, hi) with occasional
// out-of-range excursions when wild is set.
func randomSamples(rng *rand.Rand, n int, hi float64, wild bool) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * hi
		if wild && rng.Intn(20) == 0 {
			xs[i] = -xs[i] // below range: must clamp into bin 0
		}
		if wild && rng.Intn(20) == 0 {
			xs[i] = hi * (1 + rng.Float64()) // above range: clamps into last bin
		}
	}
	return xs
}

// TestSketchMergeOrderIndependent is the merge-law property test: splitting
// a stream into random shards and merging the shard sketches in random
// orders must produce bit-identical state and bit-identical query answers.
func TestSketchMergeOrderIndependent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		xs := randomSamples(rng, 500+rng.Intn(500), 100, true)

		// Reference: one sketch over the whole stream in order.
		ref := NewSketch(0, 100, 256)
		for _, x := range xs {
			ref.Add(x)
		}

		// Shard the stream: sample i goes to shard pick[i].
		nShards := 2 + rng.Intn(6)
		shards := make([]*Sketch, nShards)
		for i := range shards {
			shards[i] = NewSketch(0, 100, 256)
		}
		for _, x := range xs {
			shards[rng.Intn(nShards)].Add(x)
		}

		// Merge in a random order.
		order := rng.Perm(nShards)
		merged := NewSketch(0, 100, 256)
		for _, i := range order {
			merged.Merge(shards[i])
		}

		if ref.nbins != merged.nbins || ref.n != merged.n ||
			ref.min != merged.min || ref.max != merged.max {
			t.Fatalf("seed %d: merged sketch state differs from single-stream state", seed)
		}
		for i := 0; i < ref.nbins; i++ {
			if ref.count(i) != merged.count(i) {
				t.Fatalf("seed %d: bin %d counts %d merged, %d in one stream", seed, i, merged.count(i), ref.count(i))
			}
		}
		if ref.Summary() != merged.Summary() {
			t.Fatalf("seed %d: merged summary %v != reference %v", seed, merged.Summary(), ref.Summary())
		}
	}
}

// flatSummary is the sketch's summary computed over one flat bin array,
// as the sketch kept its bins before they were paged: the reference the
// paged queries must match bit for bit.
func flatSummary(s *Sketch) Summary {
	bins := make([]int64, s.nbins)
	for i := range bins {
		bins[i] = s.count(i)
	}
	orderStat := func(k int64) float64 {
		var cum int64
		for i, c := range bins {
			if k < cum+c {
				return s.lo + s.width*(float64(i)+(float64(k-cum)+0.5)/float64(c))
			}
			cum += c
		}
		return s.max
	}
	quantile := func(p float64) float64 {
		rank := p / 100 * float64(s.n-1)
		lo, hi := int64(math.Floor(rank)), int64(math.Ceil(rank))
		v := orderStat(lo)
		if hi != lo {
			frac := rank - float64(lo)
			v = v*(1-frac) + orderStat(hi)*frac
		}
		return v
	}
	var sum float64
	for i, c := range bins {
		sum += (s.lo + s.width*(float64(i)+0.5)) * float64(c)
	}
	return Summary{Min: s.min, P10: quantile(10), Median: quantile(50), P90: quantile(90),
		Max: s.max, Mean: sum / float64(s.n), N: int(s.n)}
}

// TestSketchPagesMatchFlatBins checks the paged bins against a flat array:
// samples spread over some pages of a range whose bin count is not a
// multiple of the page size (so the last page is partial), clamped ones
// included, answer exactly as the flat bins do, and untouched pages stay
// unallocated.
func TestSketchPagesMatchFlatBins(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		s := NewSketch(0, 100, 3*pageBins+37)
		for _, x := range randomSamples(rng, 50+rng.Intn(500), 20, true) {
			s.Add(x)
		}
		s.Add(100) // the partial last page
		if got, want := s.Summary(), flatSummary(s); got != want {
			t.Fatalf("seed %d: paged summary %v, flat bins %v", seed, got, want)
		}
		if s.pages[2] != nil {
			t.Fatalf("seed %d: a page no sample reached was allocated", seed)
		}
	}
}

// TestSketchQuantileErrorBound checks the documented accuracy contract:
// for in-range samples, every sketch quantile is within ErrorBound() of the
// exact Percentile, and the mean within half a bin width.
func TestSketchQuantileErrorBound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		xs := randomSamples(rng, 200+rng.Intn(2000), 100, false)
		s := NewSketch(0, 100, 512)
		for _, x := range xs {
			s.Add(x)
		}
		bound := s.ErrorBound()
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99} {
			exact := Percentile(xs, p)
			got := s.Quantile(p)
			if d := math.Abs(got - exact); d > bound+1e-9 {
				t.Errorf("seed %d p%.0f: sketch %.4f exact %.4f: error %.4f > bound %.4f",
					seed, p, got, exact, d, bound)
			}
		}
		if d := math.Abs(s.Mean() - Mean(xs)); d > bound/2+1e-9 {
			t.Errorf("seed %d: sketch mean %.4f exact %.4f: error %.4f > %.4f",
				seed, s.Mean(), Mean(xs), d, bound/2)
		}
	}
}

// TestSketchExactExtremes pins that Min/Max/N stay exact even for clamped
// out-of-range samples, and that the empty sketch mirrors the exact path's
// NaN convention.
func TestSketchExactExtremes(t *testing.T) {
	s := NewSketch(0, 10, 16)
	if !math.IsNaN(s.Quantile(50)) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty sketch must report NaN like the exact path")
	}
	for _, x := range []float64{-5, 3, 25, 7, math.NaN()} {
		s.Add(x)
	}
	if s.N() != 4 {
		t.Fatalf("N=%d after 4 real samples (NaN must be ignored)", s.N())
	}
	if s.Min() != -5 || s.Max() != 25 {
		t.Fatalf("extremes (%v, %v), want exact (-5, 25)", s.Min(), s.Max())
	}
	if s.Quantile(0) != -5 || s.Quantile(100) != 25 {
		t.Fatalf("p0/p100 must return exact extremes, got (%v, %v)", s.Quantile(0), s.Quantile(100))
	}
}

// TestSketchInfinities pins that infinite samples clamp into the correct
// edge bins: +Inf into the top, -Inf into the bottom. (A naive float-to-int
// bin conversion is implementation-defined for ±Inf — on amd64 +Inf converts
// to minInt and would clamp into the LOWEST bin, skewing quantiles.)
func TestSketchInfinities(t *testing.T) {
	s := NewSketch(0, 100, 10)
	s.Add(math.Inf(1))
	if q := s.Quantile(50); q < 90 || q >= 100 {
		t.Fatalf("+Inf median %v, want mass in the top bin [90, 100)", q)
	}
	if !math.IsInf(s.Max(), 1) {
		t.Fatalf("Max %v, want exact +Inf", s.Max())
	}
	s = NewSketch(0, 100, 10)
	s.Add(math.Inf(-1))
	if q := s.Quantile(50); q < 0 || q >= 10 {
		t.Fatalf("-Inf median %v, want mass in the bottom bin [0, 10)", q)
	}
	if !math.IsInf(s.Min(), -1) {
		t.Fatalf("Min %v, want exact -Inf", s.Min())
	}
}

func TestSketchIncompatibleMergePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging incompatible sketches must panic")
		}
	}()
	NewSketch(0, 10, 16).Merge(NewSketch(0, 20, 16))
}

// TestReservoirMergeMatchesSingleStream is the reservoir merge law: a
// partitioned, arbitrarily-ordered stream yields exactly the sample of the
// single full stream.
func TestReservoirMergeMatchesSingleStream(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		k := 1 + rng.Intn(20)

		full := NewReservoir[int](k, seed)
		for id := 0; id < n; id++ {
			full.Add(id, id*10)
		}

		nShards := 2 + rng.Intn(5)
		shards := make([]*Reservoir[int], nShards)
		for i := range shards {
			shards[i] = NewReservoir[int](k, seed)
		}
		for _, id := range rng.Perm(n) {
			shards[rng.Intn(nShards)].Add(id, id*10)
		}
		merged := NewReservoir[int](k, seed)
		for _, i := range rng.Perm(nShards) {
			merged.Merge(shards[i])
		}

		if !reflect.DeepEqual(full.IDs(), merged.IDs()) {
			t.Fatalf("seed %d: merged sample %v != single-stream sample %v", seed, merged.IDs(), full.IDs())
		}
		if !reflect.DeepEqual(full.Items(), merged.Items()) {
			t.Fatalf("seed %d: merged items differ", seed)
		}
	}
}

// TestReservoirAddReportsSlot: Add returns the slot that keeps the item,
// which Slot then reads and writes, or -1 for an item the sample passes
// over; Items returns what was written through the slots, and the sample
// stays the single stream's after Items sorts its slots.
func TestReservoirAddReportsSlot(t *testing.T) {
	const n, k = 300, 16
	r := NewReservoir[int](k, 7)
	passed := map[int]bool{}
	for id := range n {
		slot := r.Add(id, id)
		if slot < 0 {
			passed[id] = true
			continue
		}
		if slot >= k || *r.Slot(slot) != id {
			t.Fatalf("id %d: Add returned slot %d, which holds %d", id, slot, *r.Slot(slot))
		}
		*r.Slot(slot) = n + id
	}
	ids := r.IDs()
	for i, v := range r.Items() {
		if v != n+ids[i] {
			t.Fatalf("item %d is %d, want %d written through its slot", ids[i], v, n+ids[i])
		}
		if passed[ids[i]] {
			t.Fatalf("id %d was passed over, and sampled", ids[i])
		}
	}
	single := NewReservoir[int](k, 7)
	for id := range 2 * n {
		single.Add(id, id)
	}
	for id := n; id < 2*n; id++ {
		r.Add(id, id)
	}
	if !reflect.DeepEqual(r.IDs(), single.IDs()) {
		t.Fatalf("after Items sorted its slots the sample is %v, want %v", r.IDs(), single.IDs())
	}
}

// TestReservoirUniformish sanity-checks that the seeded hash does not
// systematically favor low or high IDs.
func TestReservoirUniformish(t *testing.T) {
	const n, k = 10_000, 500
	r := NewReservoir[struct{}](k, 42)
	for id := 0; id < n; id++ {
		r.Add(id, struct{}{})
	}
	low := 0
	for _, id := range r.IDs() {
		if id < n/2 {
			low++
		}
	}
	// Binomial(500, 0.5): 5σ ≈ 56. A split worse than 194/306 means the
	// hash is biased, not unlucky.
	if low < k/2-56 || low > k/2+56 {
		t.Fatalf("sample heavily skewed: %d of %d from the low half", low, k)
	}
}

// TestSummarizeAllocs is the satellite guard: Summarize must sort one copy
// once — exactly one allocation — not once per percentile.
func TestSummarizeAllocs(t *testing.T) {
	pin := ledger.For(t).Bound("1024 samples", "allocs")
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64((i * 7919) % 1024)
	}
	var sink Summary
	allocs := testing.AllocsPerRun(20, func() {
		sink = Summarize(xs)
	})
	if allocs > pin {
		t.Fatalf("Summarize allocated %.0f times per run, pinned at %.0f (single sorted copy)", allocs, pin)
	}
	if sink.N != len(xs) {
		t.Fatal("summary discarded")
	}
}

// TestSummarizeMatchesPercentile pins that the single-sort rewrite did not
// change any statistic relative to the per-call-sort implementation.
func TestSummarizeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 17, 100} {
		xs := randomSamples(rng, n, 50, true)
		s := Summarize(xs)
		want := Summary{
			Min:    Min(xs),
			P10:    Percentile(xs, 10),
			Median: Percentile(xs, 50),
			P90:    Percentile(xs, 90),
			Max:    Max(xs),
			Mean:   Mean(xs),
			N:      len(xs),
		}
		if n == 0 {
			// NaN != NaN; compare field presence via marshaling instead.
			if s.N != 0 || !math.IsNaN(s.Median) {
				t.Fatalf("empty summary changed: %+v", s)
			}
			continue
		}
		if s != want {
			t.Fatalf("n=%d: Summarize %+v != component-wise %+v", n, s, want)
		}
	}
}

// TestSummarizeInPlace pins that summarizing in place reads Summarize's
// statistics bit for bit, leaves its argument sorted, and allocates
// nothing.
func TestSummarizeInPlace(t *testing.T) {
	pin := ledger.For(t).Bound("1024 samples", "allocs")
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 17, 100} {
		xs := randomSamples(rng, n, 50, true)
		want := Summarize(xs)
		if got := SummarizeInPlace(xs); got != want {
			t.Fatalf("n=%d: SummarizeInPlace %+v != Summarize %+v", n, got, want)
		}
		if !sort.Float64sAreSorted(xs) {
			t.Fatalf("n=%d: argument not left sorted", n)
		}
	}
	if s := SummarizeInPlace(nil); s.N != 0 || !math.IsNaN(s.Median) {
		t.Fatalf("empty summary = %+v", s)
	}
	xs := randomSamples(rng, 1024, 50, false)
	if allocs := testing.AllocsPerRun(5, func() { SummarizeInPlace(xs) }); allocs > pin {
		t.Fatalf("SummarizeInPlace allocated %.0f times per run, pinned at %.0f", allocs, pin)
	}
}

func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Summarize(xs)
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s := NewSketch(0, 1000, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}

// TestSummarizeScratchMatchesSort is the differential test of selection:
// on random inputs of 1 to 64 values drawn from a few distinct ones (so
// ties abound), with zeros of either sign or both and now and then a NaN
// or an infinity, SummarizeScratch reads SummarizeInPlace's statistics
// bit for bit. Larger inputs, with and without ties, and in sorted,
// reversed and organ-pipe order, check the partitioning.
func TestSummarizeScratchMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, 1.5, 2, 3, 7.5, 1e300, -2, math.Inf(1), math.Inf(-1), math.NaN()}
	bitsOf := func(s Summary) [7]uint64 {
		return [7]uint64{math.Float64bits(s.Min), math.Float64bits(s.P10), math.Float64bits(s.Median),
			math.Float64bits(s.P90), math.Float64bits(s.Max), math.Float64bits(s.Mean), uint64(s.N)}
	}
	check := func(xs []float64) {
		t.Helper()
		want := SummarizeInPlace(slices.Clone(xs))
		if got := SummarizeScratch(slices.Clone(xs)); bitsOf(got) != bitsOf(want) {
			t.Fatalf("%v:\nselection %+v\nsort      %+v", xs, got, want)
		}
	}
	for trial := 0; trial < 20_000; trial++ {
		n := 1 + rng.Intn(64)
		// Draw from the first few pool values; a NaN or infinity joins
		// only one input in ten.
		width := 2 + rng.Intn(9)
		if rng.Intn(10) == 0 {
			width = len(pool)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = pool[rng.Intn(width)]
			if rng.Intn(4) == 0 {
				xs[i] = float64(rng.Intn(5)) + rng.Float64()
			}
		}
		check(xs)
	}
	for _, n := range []int{100, 1000, 4096} {
		check(randomSamples(rng, n, 50, true))
		ties := make([]float64, n)
		for i := range ties {
			ties[i] = float64(rng.Intn(3))
		}
		check(ties)
	}
	for _, n := range []int{65, 500, 2048} {
		asc, desc, pipe := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range asc {
			asc[i], desc[i], pipe[i] = float64(i), float64(n-i), float64(min(i, n-i))
		}
		check(asc)
		check(desc)
		check(pipe)
	}
}
