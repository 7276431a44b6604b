package analysis

import (
	"strings"
	"testing"
)

// runOne analyzes a single synthetic file with one analyzer.
func runOne(t *testing.T, pkgPath, src string, az *Analyzer) []Finding {
	t.Helper()
	findings, err := RunSource(pkgPath, map[string]string{pkgPath + "/fix.go": src}, []*Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// wantRules asserts the findings carry exactly the expected rules in order.
func wantRules(t *testing.T, findings []Finding, rules ...string) {
	t.Helper()
	if len(findings) != len(rules) {
		t.Fatalf("got %d findings %v, want %d (%v)", len(findings), findings, len(rules), rules)
	}
	for i, r := range rules {
		if findings[i].Rule != r {
			t.Errorf("finding %d rule = %q, want %q (%s)", i, findings[i].Rule, r, findings[i])
		}
	}
}

func TestSimClock(t *testing.T) {
	cases := []struct {
		name string
		pkg  string
		src  string
		want []string
	}{
		{
			// Randomness discipline moved to globalrand; simclock keeps the
			// wall-clock reads only.
			name: "wall clock in sim package",
			pkg:  "simfix",
			src: `package simfix

import (
	"time"
)

func bad() time.Time {
	time.Sleep(time.Second)
	return time.Now()
}
`,
			want: []string{"simclock", "simclock"},
		},
		{
			name: "seeded rand and duration arithmetic are fine",
			pkg:  "simfix",
			src: `package simfix

import (
	"math/rand"
	"time"
)

func good(seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	return time.Duration(rng.Intn(10)) * time.Second
}
`,
			want: nil,
		},
		{
			name: "non-sim package is out of scope",
			pkg:  "other",
			src: `package other

import "time"

func allowed() time.Time { return time.Now() }
`,
			want: nil,
		},
		{
			name: "suppressed with reason",
			pkg:  "simfix",
			src: `package simfix

import "time"

func pinned() time.Time {
	//lint:ignore simclock startup timestamp only labels the log file name
	return time.Now()
}
`,
			want: nil,
		},
		{
			name: "renamed import still caught",
			pkg:  "simfix",
			src: `package simfix

import clock "time"

func sneaky() clock.Time { return clock.Now() }
`,
			want: []string{"simclock"},
		},
	}
	az := NewSimClock("simfix")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRules(t, runOne(t, tc.pkg, tc.src, az), tc.want...)
		})
	}
}

// TestSimClockRunpool pins the fan-out layer's membership in the sim-
// package set: goroutines are runpool's whole point and pass freely, but
// a wall-clock read smuggled into a job function — the classic way to
// break byte-identical parallel replay — is flagged like in any other
// simulation package.
func TestSimClockRunpool(t *testing.T) {
	az := NewSimClock(SimPackagePrefixes...)
	const pkg = "demuxabr/internal/runpool"
	t.Run("goroutines allowed, wall clock banned in a job", func(t *testing.T) {
		findings := runOne(t, pkg, `package runpool

import (
	"sync"
	"time"
)

func fanOut(n int, job func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			start := time.Now() // smuggled wall clock inside a job
			_ = start
			job(0)
		}()
	}
	wg.Wait()
}
`, az)
		wantRules(t, findings, "simclock")
	})
	t.Run("pure fan-out is clean", func(t *testing.T) {
		findings := runOne(t, pkg, `package runpool

import "sync"

func fanOut(n int, job func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			job(i)
		}()
	}
	wg.Wait()
}
`, az)
		wantRules(t, findings)
	})
}

func TestMapOrder(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "append without sort",
			src: `package fix

func bad(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: []string{"maporder"},
		},
		{
			name: "append with subsequent sort",
			src: `package fix

import "sort"

func good(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`,
			want: nil,
		},
		{
			name: "slices.Sort also counts",
			src: `package fix

import "slices"

func good(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
`,
			want: nil,
		},
		{
			name: "append to loop-local slice",
			src: `package fix

func local(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var tmp []int
		tmp = append(tmp, vs...)
		n += len(tmp)
	}
	return n
}
`,
			want: nil,
		},
		{
			name: "printing inside a map range",
			src: `package fix

import "fmt"

func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
			want: []string{"maporder"},
		},
		{
			name: "range over slice is fine",
			src: `package fix

import "fmt"

func goodPrint(s []string) {
	for _, v := range s {
		fmt.Println(v)
	}
}
`,
			want: nil,
		},
		{
			// The HLSManifest.NumChunks bug: return the segment count of
			// whichever track the runtime happens to iterate first.
			name: "unconditional return of a map entry",
			src: `package fix

func numChunks(m map[string][]string) int {
	for _, segs := range m {
		return len(segs)
	}
	return 0
}
`,
			want: []string{"maporder"},
		},
		{
			name: "unconditional return behind plain statements",
			src: `package fix

func first(m map[string]int) int {
	for k, v := range m {
		_ = k
		n := v * 2
		return n + v
	}
	return 0
}
`,
			want: []string{"maporder"},
		},
		{
			name: "conditional return is a legitimate search",
			src: `package fix

func find(m map[string]int, want int) string {
	for k, v := range m {
		if v == want {
			return k
		}
	}
	return ""
}
`,
			want: nil,
		},
		{
			name: "return independent of loop variables",
			src: `package fix

func nonEmpty(m map[string]int) bool {
	for range m {
		return true
	}
	return false
}
`,
			want: nil,
		},
		{
			name: "order-insensitive reduction is fine",
			src: `package fix

func minLen(m map[string][]string) int {
	n := -1
	for _, segs := range m {
		if n < 0 || len(segs) < n {
			n = len(segs)
		}
	}
	return n
}
`,
			want: nil,
		},
		{
			name: "suppressed with reason",
			src: `package fix

func anyOne(m map[string]int) []string {
	var out []string
	//lint:ignore maporder result is order-insensitive set membership
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: nil,
		},
	}
	az := NewMapOrder()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRules(t, runOne(t, "fix", tc.src, az), tc.want...)
		})
	}
}

func TestFloatEq(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "equality and inequality between floats",
			src: `package fix

func bad(a, b float64) bool { return a == b || a != 0.0 }
`,
			want: []string{"floateq", "floateq"},
		},
		{
			name: "named float type",
			src: `package fix

type Kbps float32

func bad(a, b Kbps) bool { return a == b }
`,
			want: []string{"floateq"},
		},
		{
			name: "integers and ordering are fine",
			src: `package fix

func good(a, b int, x, y float64) bool { return a == b && x < y }
`,
			want: nil,
		},
		{
			name: "suppressed with reason",
			src: `package fix

func exact(a float64) bool {
	//lint:ignore floateq sentinel compares against the exact stored value
	return a == 1.5
}
`,
			want: nil,
		},
	}
	az := NewFloatEq()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRules(t, runOne(t, "fix", tc.src, az), tc.want...)
		})
	}
}

func TestUnits(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "bits plus bytes",
			src: `package fix

func bad(sizeBytes, sizeBits int64) int64 { return sizeBytes + sizeBits }
`,
			want: []string{"units"},
		},
		{
			name: "sec compared with ms",
			src: `package fix

func bad(durSec, durMs float64) bool { return durSec < durMs }
`,
			want: []string{"units"},
		},
		{
			name: "explicit conversion factor",
			src: `package fix

func good(sizeBytes, sizeBits int64) int64 { return sizeBytes*8 + sizeBits }
`,
			want: nil,
		},
		{
			name: "millisecond conversion factor",
			src: `package fix

func good(durSec, durMs float64) float64 { return durSec*1000 + durMs }
`,
			want: nil,
		},
		{
			name: "same unit both sides",
			src: `package fix

func good(totalBytes, chunkBytes int64) int64 { return totalBytes + chunkBytes }
`,
			want: nil,
		},
		{
			name: "conversion helper neutralizes",
			src: `package fix

func bytesToBits(b int64) int64 { return b * 8 }

func good(sizeBytes, sizeBits int64) int64 { return bytesToBits(sizeBytes) + sizeBits }
`,
			want: nil,
		},
		{
			name: "multiplication is a conversion",
			src: `package fix

func good(rateBits, durSec float64) float64 { return rateBits * durSec }
`,
			want: nil,
		},
		{
			name: "suppressed with reason",
			src: `package fix

func mixed(padBytes, frameBits int64) int64 {
	//lint:ignore units protocol field packs both counters into one word
	return padBytes + frameBits
}
`,
			want: nil,
		},
	}
	az := NewUnits()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRules(t, runOne(t, "fix", tc.src, az), tc.want...)
		})
	}
}

func TestSuppressionNeedsReason(t *testing.T) {
	src := `package fix

func bad(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}
`
	findings := runOne(t, "fix", src, NewFloatEq())
	wantRules(t, findings, "bad-suppression", "floateq")
}

func TestFindingString(t *testing.T) {
	src := `package fix

func bad(a, b float64) bool { return a == b }
`
	findings := runOne(t, "fix", src, NewFloatEq())
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	s := findings[0].String()
	if !strings.HasPrefix(s, "fix/fix.go:3: [floateq] ") {
		t.Errorf("String() = %q, want file:line: [rule] message shape", s)
	}
}
