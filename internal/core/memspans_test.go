package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/spans"
)

// tracedMemAccesses runs n traced 64 KiB GPU reads over consecutive
// addresses from rotating XCDs.
func tracedMemAccesses(p *Platform, n int) {
	for i := range n {
		p.GPUMemTimeAt(sim.Time(i)*sim.Nanosecond, i%len(p.XCDs), int64(i)<<16, 64<<10, false)
	}
}

// TestTracedMemAccessAllocs pins the cost of tracing a memory
// transaction: the bound observers record into the span store without
// formatting or closures, so 1,024 traced 64 KiB transactions average
// under 0.05 allocations each — the store's chunk growth.
func TestTracedMemAccessAllocs(t *testing.T) {
	p, err := NewPlatform(config.MI300A(), spans.NewRecorder(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	if got := testing.AllocsPerRun(4, func() { tracedMemAccesses(p, n) }) / n; got >= 0.05 {
		t.Errorf("a traced memory transaction averages %.3f allocations, want under 0.05", got)
	}
	if p.SpanRecorder().RootsSampled() != 5*n {
		t.Fatalf("recorded %d roots, want %d", p.SpanRecorder().RootsSampled(), 5*n)
	}
}

// BenchmarkMemAccess measures one 64 KiB GPU read through the memory
// path on an MI300A built without a span recorder and with one.
func BenchmarkMemAccess(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  func() *spans.Recorder
	}{
		{"untraced", func() *spans.Recorder { return nil }},
		{"traced", func() *spans.Recorder { return spans.NewRecorder(1, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := NewPlatform(config.MI300A(), c.rec())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkTime = p.GPUMemTimeAt(sim.Time(i)*sim.Nanosecond, i%len(p.XCDs), int64(i%1024)<<16, 64<<10, false)
			}
		})
	}
}

var sinkTime sim.Time
