package telemetry

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// This file wires concrete component models to a Recorder. Each helper
// registers that component's probe set under a stable name scheme; the
// probe taxonomy is documented in DESIGN.md. core.Platform.Instrument
// composes them for a whole platform, and experiments that build bare
// components (a standalone HBM device, a loose XCD list) call them
// directly.

// InstrumentNetwork registers, per fabric link, a utilization duty cycle
// (bytes carried over the interval against nominal bandwidth) and a
// queued-bytes gauge (payload still draining at the link's occupancy
// horizon).
func InstrumentNetwork(rec *Recorder, n *fabric.Network) {
	for _, l := range n.Links() {
		l := l
		name := "fabric." + l.Name
		rec.Utilization(name+".util", l.BW, func() float64 { return float64(l.BytesCarried()) })
		rec.Gauge(name+".queued_bytes", func(now sim.Time) float64 {
			q := l.BusyUntil() - now
			bw := l.EffectiveBW()
			if q <= 0 || bw <= 0 {
				return 0
			}
			return q.Seconds() * bw
		})
	}
}

// InstrumentHBM registers device-wide bandwidth, live-channel count, ECC
// retry rate, and interval row-buffer hit rate, plus per-stack bandwidth,
// under the given name prefix (e.g. "hbm", "ddr").
func InstrumentHBM(rec *Recorder, h *mem.HBM, prefix string) {
	rec.Rate(prefix+".bw", func() float64 { return float64(h.BytesMoved()) })
	rec.Gauge(prefix+".live_channels", func(sim.Time) float64 { return float64(h.LiveChannels()) })
	rec.Rate(prefix+".ecc_retries", func() float64 { return float64(h.ECCEvents()) })
	var prevHits, prevMisses uint64
	rec.MustRegister(prefix+".row_hit", KindOccupancy, func(_, dt sim.Time) float64 {
		hits, misses := h.RowStats()
		dh, dm := hits-prevHits, misses-prevMisses
		prevHits, prevMisses = hits, misses
		if dt <= 0 || dh+dm == 0 {
			return 0
		}
		return clamp01(float64(dh) / float64(dh+dm))
	})
	for s := 0; s < h.Map.Stacks; s++ {
		s := s
		rec.Rate(fmt.Sprintf("%s.stack%d.bw", prefix, s),
			func() float64 { return float64(h.StackBytesMoved(s)) })
	}
}

// InstrumentInfinityCache registers the memory-side cache's interval hit
// rate (hits over accesses within each sampling interval, not cumulative).
func InstrumentInfinityCache(rec *Recorder, ic *cache.InfinityCache) {
	var prevHits, prevMisses uint64
	rec.MustRegister("icache.hit_rate", KindOccupancy, func(_, dt sim.Time) float64 {
		st := ic.Stats()
		dh, dm := st.Hits-prevHits, st.Misses-prevMisses
		prevHits, prevMisses = st.Hits, st.Misses
		if dt <= 0 || dh+dm == 0 {
			return 0
		}
		return clamp01(float64(dh) / float64(dh+dm))
	})
}

// InstrumentXCDs registers, per accelerator die, the number of CUs with
// work in flight and the count of occupied workgroup slots at each sample
// instant.
func InstrumentXCDs(rec *Recorder, xcds []*gpu.XCD) {
	for _, x := range xcds {
		x := x
		name := fmt.Sprintf("xcd%d", x.ID)
		rec.Gauge(name+".busy_cus", func(now sim.Time) float64 {
			busy, _ := x.Occupancy(now)
			return float64(busy)
		})
		rec.Gauge(name+".inflight_wgs", func(now sim.Time) float64 {
			_, inFlight := x.Occupancy(now)
			return float64(inFlight)
		})
	}
}
