package abr

import (
	"testing"
	"testing/quick"
	"time"

	"demuxabr/internal/media"
)

func ladder() media.Ladder { return media.DramaVideoLadder() }

func TestStateHelpers(t *testing.T) {
	v := ladder()[0]
	a := media.DramaAudioLadder()[0]
	st := State{
		VideoBuffer: 10 * time.Second,
		AudioBuffer: 4 * time.Second,
		LastVideo:   v,
		LastAudio:   a,
	}
	if st.Buffer(media.Video) != 10*time.Second || st.Buffer(media.Audio) != 4*time.Second {
		t.Error("Buffer() wrong")
	}
	if st.MinBuffer() != 4*time.Second {
		t.Errorf("MinBuffer = %v", st.MinBuffer())
	}
	st.VideoBuffer, st.AudioBuffer = st.AudioBuffer, st.VideoBuffer
	if st.MinBuffer() != 4*time.Second {
		t.Errorf("MinBuffer after swap = %v", st.MinBuffer())
	}
}

func TestTransferInfoThroughput(t *testing.T) {
	ti := TransferInfo{Bytes: 125000, Duration: time.Second}
	if got := ti.Throughput(); got != 1e6 {
		t.Errorf("Throughput = %v, want 1e6", got)
	}
	if got := (TransferInfo{Bytes: 100}).Throughput(); got != 0 {
		t.Errorf("zero-duration throughput = %v", got)
	}
}

func TestDownloadProgress(t *testing.T) {
	dp := DownloadProgress{
		BytesDone:  25_000,
		BytesTotal: 100_000,
		Elapsed:    time.Second,
	}
	if got := dp.Rate(); got != 200_000 {
		t.Errorf("Rate = %v, want 200e3", got)
	}
	// 75000 bytes remain at 200 Kbps -> 3 s.
	if got := dp.RemainingTime(); got != 3*time.Second {
		t.Errorf("RemainingTime = %v, want 3s", got)
	}
	stalledDp := DownloadProgress{BytesTotal: 100, Elapsed: time.Second}
	if got := stalledDp.RemainingTime(); got < time.Hour {
		t.Errorf("zero-rate remaining = %v, want effectively infinite", got)
	}
}

func TestHighestTrackAtMost(t *testing.T) {
	l := ladder() // declared: 111, 246, 473, 914, 1852, 3746 Kbps
	cases := []struct {
		budget float64
		want   string
	}{
		{50, "V1"}, // nothing fits: lowest
		{111, "V1"},
		{500, "V3"},
		{914, "V4"},
		{10_000, "V6"},
	}
	for _, tc := range cases {
		if got := HighestTrackAtMost(l, media.Kbps(tc.budget)); got.ID != tc.want {
			t.Errorf("budget %v: got %s, want %s", tc.budget, got.ID, tc.want)
		}
	}
}

func TestHighestAtMost(t *testing.T) {
	c := media.DramaShow()
	combos := media.HSub(c) // declared: 239, 374, 669, 1110, 2236, 4130
	cases := []struct {
		budget float64
		want   string
	}{
		{100, "V1+A1"},
		{400, "V2+A1"},
		{700, "V3+A2"},
		{4130, "V6+A3"},
	}
	for _, tc := range cases {
		got := HighestAtMost(combos, media.Kbps(tc.budget), media.Combo.DeclaredBitrate)
		if got.String() != tc.want {
			t.Errorf("budget %v: got %s, want %s", tc.budget, got, tc.want)
		}
	}
}

// Property: HighestAtMost is monotone in the budget and always returns a
// member of the list.
func TestHighestAtMostMonotoneProperty(t *testing.T) {
	c := media.DramaShow()
	combos := media.HSub(c)
	member := map[string]bool{}
	for _, cb := range combos {
		member[cb.String()] = true
	}
	f := func(b1, b2 uint32) bool {
		x, y := media.Bps(b1%5_000_000), media.Bps(b2%5_000_000)
		if x > y {
			x, y = y, x
		}
		lo := HighestAtMost(combos, x, media.Combo.DeclaredBitrate)
		hi := HighestAtMost(combos, y, media.Combo.DeclaredBitrate)
		return member[lo.String()] && member[hi.String()] &&
			lo.DeclaredBitrate() <= hi.DeclaredBitrate()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNopObserver(t *testing.T) {
	var o NopObserver
	// All hooks must be callable no-ops.
	o.OnStart(TransferInfo{})
	o.OnProgress(TransferInfo{})
	o.OnComplete(TransferInfo{})
}
