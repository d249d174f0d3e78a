package config

// This file computes the derived performance metrics that the paper's
// Figure 19 reports: peak computational throughput per data type, memory
// bandwidth and capacity, and aggregate I/O bandwidth.

// PeakFlops reports peak operations/sec for the whole package for the given
// engine class and data type, dense. For platforms with an analytic
// override (BaselineGPU) the override wins for matrix math.
func (p *PlatformSpec) PeakFlops(class EngineClass, d DataType) float64 {
	if p.AnalyticPeaks != nil {
		if v, ok := p.AnalyticPeaks[d]; ok {
			if class == Matrix {
				return v
			}
			// Vector paths on the baseline run at the FP64/FP32 rate.
			if d == FP64 || d == FP32 {
				return v
			}
			return 0
		}
	}
	if p.XCD == nil || p.XCD.Rates == nil {
		return 0
	}
	ops := p.XCD.Rates.Ops(class, d)
	return ops * float64(p.TotalCUs()) * p.XCD.ClockHz
}

// PeakSparseFlops reports peak matrix ops/sec with 4:2 structured sparsity.
func (p *PlatformSpec) PeakSparseFlops(d DataType) float64 {
	if p.AnalyticPeaks != nil {
		if v, ok := p.AnalyticPeaks[d]; ok {
			return 2 * v // baseline sparsity doubling
		}
	}
	if p.XCD == nil || p.XCD.Rates == nil {
		return 0
	}
	return p.XCD.Rates.SparseOps(d) * float64(p.TotalCUs()) * p.XCD.ClockHz
}

// PeakMemoryBW reports peak theoretical HBM bandwidth in bytes/sec.
func (p *PlatformSpec) PeakMemoryBW() float64 {
	if p.HBM == nil {
		return 0
	}
	return p.HBM.TotalBW()
}

// MemoryCapacity reports package memory capacity in bytes.
func (p *PlatformSpec) MemoryCapacity() int64 {
	if p.HBM == nil {
		return 0
	}
	return p.HBM.TotalCapacity()
}

// InfinityCacheBW reports the memory-side cache bandwidth (0 if absent).
func (p *PlatformSpec) InfinityCacheBW() float64 {
	if p.InfinityCache == nil {
		return 0
	}
	return p.InfinityCache.TotalBW
}

// InfinityCacheBytes reports total Infinity Cache capacity (0 if absent).
func (p *PlatformSpec) InfinityCacheBytes() int64 {
	if p.InfinityCache == nil || p.HBM == nil {
		return 0
	}
	return p.InfinityCache.TotalBytes(p.HBM.TotalChannels())
}

// SocketX16Links reports the number of external x16 links per socket
// (§VIII: "each MI300 socket has eight x16 links").
func (p *PlatformSpec) SocketX16Links() int {
	if p.IOD == nil || p.IODs == 0 {
		// Legacy parts: MI250X exposes 8 external IF links.
		if p.Name == "MI250X" {
			return 8
		}
		return 2
	}
	return p.IODs * p.IOD.X16Links
}

// PeakIOBW reports aggregate bidirectional I/O bandwidth per socket in
// bytes/sec (§VIII: 8 × 128 GB/s = 1,024 GB/s for MI300).
func (p *PlatformSpec) PeakIOBW() float64 {
	if p.IOD != nil && p.IODs > 0 {
		return float64(p.SocketX16Links()) * 2 * p.IOD.X16BWPerDir
	}
	if p.Name == "MI250X" {
		return 8 * 2 * 32e9 // 8 links at 32 GB/s/dir
	}
	return 2 * 2 * 32e9
}

// CPUPeakFlops reports peak FP64 flops of the in-package CPU complex.
func (p *PlatformSpec) CPUPeakFlops() float64 {
	if p.CCD == nil {
		return 0
	}
	return float64(p.TotalCores()) * p.CCD.ClockHz * p.CCD.FlopsCore
}
