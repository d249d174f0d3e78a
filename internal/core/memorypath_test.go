package core

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// TestFormatNSMatchesFormatFloat checks the integer queue_ns formatter
// against the float formatting it replaced: the named cases, both sides
// of the 2^43 ns cut to the float path, and random times below it.
func TestFormatNSMatchesFormatFloat(t *testing.T) {
	const cut = 1 << 43 * sim.Nanosecond
	times := []sim.Time{0, 1, 999, 1000, 1234567, 1 << 53, cut - 1, cut, cut + 1, 1<<63 - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		times = append(times, sim.Time(rng.Int63n(int64(cut))), cut-1-sim.Time(rng.Intn(1e6)))
	}
	for _, ps := range times {
		if got, want := formatNS(ps), strconv.FormatFloat(ps.Nanoseconds(), 'f', 3, 64); got != want {
			t.Fatalf("formatNS(%d ps) = %q, want %q", int64(ps), got, want)
		}
	}
}
