package config

import (
	"errors"
	"fmt"
)

// Sizes and common constants used throughout the model.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	// CacheLineSize is the CDNA 3 L1 line size (§IV.B: 128 B).
	CacheLineSize = 128
)

// XCDSpec describes one accelerator complex die.
type XCDSpec struct {
	PhysicalCUs int     // CUs implemented in silicon (40)
	EnabledCUs  int     // CUs enabled after yield harvesting (38)
	ClockHz     float64 // engine clock
	ACEs        int     // asynchronous compute engines per XCD
	L2Bytes     int64   // shared L2 per XCD
	LDSBytes    int64   // local data share per CU
	Rates       *RateTable
	// SIMDLanesPerCU is the nominal vector width used by the functional
	// model to size wavefronts (64-wide wavefronts on CDNA).
	WavefrontSize int
}

// CCDSpec describes one CPU complex die ("Zen 4" CCD).
type CCDSpec struct {
	Cores     int
	ClockHz   float64
	FlopsCore float64 // peak FP64 flops per core per clock (AVX-512: 16)
}

// HBMSpec describes the in-package memory system.
type HBMSpec struct {
	Generation    string // "HBM2e", "HBM3"
	Stacks        int
	ChannelsStack int     // memory channels per stack
	StackCapacity int64   // bytes per stack
	StackBW       float64 // bytes/sec per stack
}

// TotalCapacity reports the package memory capacity in bytes.
func (h *HBMSpec) TotalCapacity() int64 { return int64(h.Stacks) * h.StackCapacity }

// TotalChannels reports the total channel count.
func (h *HBMSpec) TotalChannels() int { return h.Stacks * h.ChannelsStack }

// TotalBW reports peak theoretical memory bandwidth in bytes/sec.
func (h *HBMSpec) TotalBW() float64 { return float64(h.Stacks) * h.StackBW }

// InfinityCacheSpec describes the memory-side cache (§IV.D).
type InfinityCacheSpec struct {
	SliceBytes int64   // per memory channel (2 MiB)
	TotalBW    float64 // aggregate bandwidth (17 TB/s on MI300A)
	Prefetch   bool
}

// TotalBytes reports total capacity given a channel count.
func (c *InfinityCacheSpec) TotalBytes(channels int) int64 {
	if c == nil {
		return 0
	}
	return c.SliceBytes * int64(channels)
}

// IODSpec describes one I/O die: its share of the fabric, HBM PHYs, and
// external links.
type IODSpec struct {
	HBMStacks int // HBM PHYs per IOD (2 on MI300)
	// USRHorizontalBW / USRVerticalBW are per-direction bandwidths of the
	// ultra-short-reach links to the horizontally / vertically adjacent
	// IOD. Estimated: the paper states only "multiple TB/s".
	USRHorizontalBW float64
	USRVerticalBW   float64
	// X16Links is the number of external x16 interfaces per IOD (2).
	X16Links int
	// X16BWPerDir is per-direction bandwidth of one x16 link (64 GB/s).
	X16BWPerDir float64
}

// LinkKind classifies inter-die and inter-socket links.
type LinkKind int

const (
	// LinkUSR is an ultra-short-reach die-to-die PHY between adjacent
	// IODs on the interposer (0.4 mW/Gbps, §V.A).
	LinkUSR LinkKind = iota
	// LinkSerDes is a conventional organic-substrate SerDes link (as in
	// EHPv4's GCD-GCD path and EPYC IODs).
	LinkSerDes
	// LinkIFOP is an external x16 Infinity Fabric link between sockets.
	LinkIFOP
	// LinkPCIe is an external x16 PCIe Gen5 link to a host or I/O.
	LinkPCIe
	// LinkOnDie is the fabric within a single IOD.
	LinkOnDie
)

// String names the link kind.
func (k LinkKind) String() string {
	switch k {
	case LinkUSR:
		return "USR"
	case LinkSerDes:
		return "SerDes"
	case LinkIFOP:
		return "IFOP"
	case LinkPCIe:
		return "PCIe"
	case LinkOnDie:
		return "OnDie"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// EnergyPerBit reports approximate transport energy in pJ/bit, used by the
// power model to charge data movement. USR is the paper's 0.4 mW/Gbps
// (= 0.4 pJ/bit); others are representative published figures.
func (k LinkKind) EnergyPerBit() float64 {
	switch k {
	case LinkUSR:
		return 0.4
	case LinkSerDes:
		return 2.0
	case LinkIFOP:
		return 4.0
	case LinkPCIe:
		return 5.0
	case LinkOnDie:
		return 0.1
	default:
		return 1.0
	}
}

// MemoryModel distinguishes unified-memory APUs from discrete CPU+GPU nodes.
type MemoryModel int

const (
	// UnifiedMemory: CPU and GPU share one physical HBM pool (APU).
	UnifiedMemory MemoryModel = iota
	// DiscreteMemory: host DDR and device HBM are separate; transfers
	// cross a host link (PCIe or IF).
	DiscreteMemory
)

// String names the memory model.
func (m MemoryModel) String() string {
	if m == UnifiedMemory {
		return "unified"
	}
	return "discrete"
}

// HostSpec describes the host CPU side of a discrete-GPU platform.
type HostSpec struct {
	Cores     int
	ClockHz   float64
	DDRBW     float64 // host memory bandwidth, bytes/sec
	DDRBytes  int64
	LinkKind  LinkKind
	LinkBW    float64 // per-direction host<->device bandwidth, bytes/sec
	FlopsCore float64
}

// PlatformSpec is the complete description of one processor package (plus
// host, for discrete platforms). All simulator components are constructed
// from this.
type PlatformSpec struct {
	Name string

	// Compute.
	XCDs   int
	XCD    *XCDSpec
	CCDs   int
	CCD    *CCDSpec // nil for accelerator-only parts
	IODs   int
	IOD    *IODSpec
	Memory MemoryModel
	Host   *HostSpec // nil for self-hosted APUs

	// Memory system.
	HBM           *HBMSpec
	InfinityCache *InfinityCacheSpec // nil if absent (MI250X)

	// DevicePresentation: number of separate accelerators the package
	// presents to software by default (MI250X presents each GCD as its
	// own device; MI300A presents one).
	DevicePresentation int

	// Power.
	TDPWatts float64

	// AnalyticPeaks optionally overrides computed peak flops (used for
	// the non-CDNA baseline GPU in Fig. 21). Keyed by dense matrix type.
	AnalyticPeaks map[DataType]float64

	// CrossDieBWPerDir is the per-direction bandwidth between the two
	// GPU halves for legacy parts (MI250X GCD-GCD, EHPv4): these do not
	// have the 4-IOD USR mesh.
	CrossDieBWPerDir float64
}

// TotalCUs reports enabled CUs across all XCDs.
func (p *PlatformSpec) TotalCUs() int {
	if p.XCD == nil {
		return 0
	}
	return p.XCDs * p.XCD.EnabledCUs
}

// TotalCores reports CPU cores in the package (0 for accelerator-only).
func (p *PlatformSpec) TotalCores() int {
	if p.CCD == nil {
		return 0
	}
	return p.CCDs * p.CCD.Cores
}

// Validate checks internal consistency of the spec.
func (p *PlatformSpec) Validate() error {
	if p.Name == "" {
		return errors.New("config: platform must be named")
	}
	if p.XCDs > 0 && p.XCD == nil {
		return fmt.Errorf("config: %s has %d XCDs but no XCD spec", p.Name, p.XCDs)
	}
	if p.CCDs > 0 && p.CCD == nil {
		return fmt.Errorf("config: %s has %d CCDs but no CCD spec", p.Name, p.CCDs)
	}
	if p.XCD != nil && p.XCD.EnabledCUs > p.XCD.PhysicalCUs {
		return fmt.Errorf("config: %s enables %d of %d physical CUs", p.Name, p.XCD.EnabledCUs, p.XCD.PhysicalCUs)
	}
	if p.XCD != nil && p.XCD.EnabledCUs <= 0 {
		return fmt.Errorf("config: %s XCD spec enables %d CUs (need at least 1)", p.Name, p.XCD.EnabledCUs)
	}
	if p.XCD != nil && p.XCD.ClockHz <= 0 {
		return fmt.Errorf("config: %s XCD clock %g Hz is not positive", p.Name, p.XCD.ClockHz)
	}
	if p.CCD != nil && p.CCDs > 0 && (p.CCD.Cores <= 0 || p.CCD.ClockHz <= 0) {
		return fmt.Errorf("config: %s CCD spec needs positive cores and clock (got %d cores at %g Hz)",
			p.Name, p.CCD.Cores, p.CCD.ClockHz)
	}
	if p.HBM == nil {
		return fmt.Errorf("config: %s has no memory spec", p.Name)
	}
	if p.HBM.Stacks <= 0 || p.HBM.ChannelsStack <= 0 {
		return fmt.Errorf("config: %s HBM needs positive stack and channel counts (got %d stacks x %d channels/stack)",
			p.Name, p.HBM.Stacks, p.HBM.ChannelsStack)
	}
	if p.HBM.StackCapacity <= 0 || p.HBM.StackBW <= 0 {
		return fmt.Errorf("config: %s HBM needs positive stack capacity and bandwidth (got %d B at %g B/s)",
			p.Name, p.HBM.StackCapacity, p.HBM.StackBW)
	}
	if p.InfinityCache != nil && (p.InfinityCache.SliceBytes <= 0 || p.InfinityCache.TotalBW <= 0) {
		return fmt.Errorf("config: %s Infinity Cache needs positive slice size and bandwidth (got %d B at %g B/s)",
			p.Name, p.InfinityCache.SliceBytes, p.InfinityCache.TotalBW)
	}
	if p.IODs > 0 && p.IOD != nil && p.IOD.HBMStacks*p.IODs != p.HBM.Stacks {
		return fmt.Errorf("config: %s IODs host %d stacks but HBM has %d",
			p.Name, p.IOD.HBMStacks*p.IODs, p.HBM.Stacks)
	}
	if p.Memory == DiscreteMemory && p.Host == nil {
		return fmt.Errorf("config: %s is discrete but has no host", p.Name)
	}
	if p.DevicePresentation <= 0 {
		return fmt.Errorf("config: %s has no device presentation", p.Name)
	}
	// Platform assembly gives each presented device XCDs/DevicePresentation
	// XCDs; presenting more devices than XCDs would build an empty
	// partition, which the gpu package (rightly) refuses.
	if p.XCDs > 0 && p.DevicePresentation > p.XCDs {
		return fmt.Errorf("config: %s presents %d devices from %d XCDs (each device needs at least one XCD)",
			p.Name, p.DevicePresentation, p.XCDs)
	}
	return nil
}

// MI300A returns the spec of the AMD Instinct MI300A APU (§IV):
// 6 XCDs (228 CUs), 3 CCDs (24 "Zen 4" cores), 4 IODs, 8 HBM3 stacks
// (128 GB, ~5.3 TB/s), 256 MB Infinity Cache at up to 17 TB/s, 550 W.
func MI300A() *PlatformSpec {
	return &PlatformSpec{
		Name: "MI300A",
		XCDs: 6,
		XCD:  cdna3XCD(),
		CCDs: 3,
		CCD:  zen4CCD(),
		IODs: 4,
		IOD:  mi300IOD(),
		HBM: &HBMSpec{
			Generation:    "HBM3",
			Stacks:        8,
			ChannelsStack: 16, // 128 channels total
			StackCapacity: 16 * GiB,
			StackBW:       5.3e12 / 8,
		},
		InfinityCache: &InfinityCacheSpec{
			SliceBytes: 2 * MiB,
			TotalBW:    17e12,
			Prefetch:   true,
		},
		Memory:             UnifiedMemory,
		DevicePresentation: 1,
		TDPWatts:           550,
	}
}

// MI300X returns the spec of the AMD Instinct MI300X accelerator (§VII):
// the three CCDs are swapped for two more XCDs (8 XCDs, 304 CUs) and the
// HBM stacks are 12-high (192 GB).
func MI300X() *PlatformSpec {
	p := MI300A()
	p.Name = "MI300X"
	p.XCDs = 8
	p.CCDs = 0
	p.CCD = nil
	p.HBM.StackCapacity = 24 * GiB // 12-high stacks
	p.Memory = DiscreteMemory      // PCIe device attached to an EPYC host
	p.Host = epycHost()
	p.TDPWatts = 750
	return p
}

// MI250X returns the spec of the AMD Instinct MI250X accelerator (CDNA 2):
// two GCDs of 110 CUs each presented as separate devices, 128 GB HBM2e at
// ~3.28 TB/s, no Infinity Cache, 560 W.
func MI250X() *PlatformSpec {
	return &PlatformSpec{
		Name: "MI250X",
		XCDs: 2, // two GCDs
		XCD: &XCDSpec{
			PhysicalCUs:   112,
			EnabledCUs:    110,
			ClockHz:       1.7e9,
			ACEs:          4,
			L2Bytes:       8 * MiB,
			LDSBytes:      64 * KiB,
			Rates:         CDNA2Rates(),
			WavefrontSize: 64,
		},
		IODs: 0, // monolithic GCDs bridged by EFB, no separate IOD
		HBM: &HBMSpec{
			Generation:    "HBM2e",
			Stacks:        8,
			ChannelsStack: 8,
			StackCapacity: 16 * GiB,
			StackBW:       3.2768e12 / 8,
		},
		Memory:             DiscreteMemory,
		Host:               epycHost(),
		DevicePresentation: 2, // each GCD is a standalone accelerator (§VI.A)
		TDPWatts:           560,
		CrossDieBWPerDir:   200e9, // 4 IF links between GCDs, 50 GB/s/dir each
	}
}

// EHPv4 returns the "version 4" Exascale Heterogeneous Processor concept
// (§II.A, §III.B): 4 GPU chiplets + 2 CCDs around a reused EPYC server IOD,
// 8 HBM stacks, with the documented shortcomings — GCD-GCD traffic over
// distant substrate SerDes and CPU→HBM paths needing two IF hops.
func EHPv4() *PlatformSpec {
	return &PlatformSpec{
		Name: "EHPv4",
		XCDs: 4,
		XCD: &XCDSpec{
			PhysicalCUs:   40,
			EnabledCUs:    38,
			ClockHz:       1.7e9,
			ACEs:          4,
			L2Bytes:       4 * MiB,
			LDSBytes:      64 * KiB,
			Rates:         CDNA2Rates(),
			WavefrontSize: 64,
		},
		CCDs: 2,
		CCD:  zen4CCD(),
		IODs: 1, // the reused EPYC server IOD
		IOD: &IODSpec{
			HBMStacks: 8,
			// No USR: the server IOD only offers substrate SerDes
			// IF links provisioned for DDR-class bandwidth (§III.B).
			USRHorizontalBW: 0,
			USRVerticalBW:   0,
			X16Links:        2,
			X16BWPerDir:     36e9, // older-generation IF
		},
		HBM: &HBMSpec{
			Generation:    "HBM2e",
			Stacks:        8,
			ChannelsStack: 8,
			StackCapacity: 16 * GiB,
			StackBW:       3.2768e12 / 8,
		},
		Memory:             UnifiedMemory,
		DevicePresentation: 2, // two GPU halves, not unifiable (§VI.A)
		TDPWatts:           500,
		CrossDieBWPerDir:   100e9, // long-distance substrate SerDes path (Fig. 4 ①)
	}
}

// BaselineGPU returns an H100-class competitor model used as the Fig. 21
// baseline: analytic peak rates (no CDNA rate table), 80 GB HBM3 at
// 3.35 TB/s, attached over PCIe to an x86 host.
func BaselineGPU() *PlatformSpec {
	return &PlatformSpec{
		Name: "BaselineGPU",
		XCDs: 1, // modeled as one monolithic die
		XCD: &XCDSpec{
			PhysicalCUs:   132,
			EnabledCUs:    132,
			ClockHz:       1.98e9,
			ACEs:          1,
			L2Bytes:       64 * MiB, // ~50 MB real; rounded for power-of-two sets
			LDSBytes:      0,
			Rates:         &RateTable{Name: "baseline"},
			WavefrontSize: 32,
		},
		HBM: &HBMSpec{
			Generation:    "HBM3",
			Stacks:        5,
			ChannelsStack: 8,
			StackCapacity: 16 * GiB,
			StackBW:       3.35e12 / 5,
		},
		Memory:             DiscreteMemory,
		Host:               epycHost(),
		DevicePresentation: 1,
		TDPWatts:           700,
		AnalyticPeaks: map[DataType]float64{
			FP64: 67e12,
			FP32: 67e12,
			TF32: 494e12,
			FP16: 989e12,
			BF16: 989e12,
			FP8:  1979e12,
			INT8: 1979e12,
		},
	}
}

// cdna3XCD is the MI300-family XCD (§IV.B): 40 physical / 38 enabled CUs,
// 4 ACEs, 4 MB L2, 32 KB L1D with 128 B lines, 64 KB LDS, 64 KB shared
// I-cache per CU pair.
func cdna3XCD() *XCDSpec {
	return &XCDSpec{
		PhysicalCUs:   40,
		EnabledCUs:    38,
		ClockHz:       2.1e9,
		ACEs:          4,
		L2Bytes:       4 * MiB,
		LDSBytes:      64 * KiB,
		Rates:         CDNA3Rates(),
		WavefrontSize: 64,
	}
}

// zen4CCD is the "Zen 4" CCD (§IV.C): 8 cores, 1 MB L2/core, 32 MB shared
// L3, AVX-512 (16 FP64 flops/clk/core).
func zen4CCD() *CCDSpec {
	return &CCDSpec{
		Cores:     8,
		ClockHz:   3.7e9,
		FlopsCore: 16,
	}
}

// mi300IOD is one of MI300's four active-interposer I/O dies: 2 HBM PHYs,
// USR links to adjacent IODs, and two external x16 interfaces (§V, §VIII).
// USR per-direction bandwidths are estimates consistent with the paper's
// "multiple TB/s" aggregate.
func mi300IOD() *IODSpec {
	return &IODSpec{
		HBMStacks:       2,
		USRHorizontalBW: 1.5e12,
		USRVerticalBW:   1.2e12,
		X16Links:        2,
		X16BWPerDir:     64e9,
	}
}

// epycHost is a 4th-gen EPYC host for discrete platforms.
func epycHost() *HostSpec {
	return &HostSpec{
		Cores:     64,
		ClockHz:   3.5e9,
		DDRBW:     460e9, // 12ch DDR5-4800
		DDRBytes:  768 * GiB,
		LinkKind:  LinkPCIe,
		LinkBW:    64e9,
		FlopsCore: 16,
	}
}
