// Package core assembles the paper's primary contribution: a complete
// MI300-class platform model. From a config.PlatformSpec it instantiates
// the in-package Infinity Fabric spanning the four IODs (§IV.A), the HBM
// channels and memory-side Infinity Cache (§IV.D), the XCD partitions
// with cooperative AQL dispatch (§VI.A), the CCD complex (§IV.C), and the
// socket power model — and exposes the timing paths (GPU→HBM, CPU→HBM,
// host↔device) that every experiment in the repository exercises. The
// same constructor builds the MI250X, EHPv4, and baseline-GPU comparison
// platforms from their specs, differing only in topology and parameters,
// never in code path.
package core

import (
	"strconv"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/spans"
)

// Platform is a fully assembled processor package (plus host, when the
// spec is a discrete accelerator).
type Platform struct {
	Spec *config.PlatformSpec

	// Net is the in-package fabric (IODs, chiplets, HBM stacks, IO).
	Net *fabric.Network
	// HBM is the channel-level memory timing model.
	HBM *mem.HBM
	// InfCache is the memory-side cache; nil when the spec lacks one.
	InfCache *cache.InfinityCache
	// DeviceMem is the functional device/unified address space.
	DeviceMem *mem.Space
	// HostMem is the host address space: identical to DeviceMem on a
	// unified-memory APU (that is the whole point), separate on
	// discrete platforms.
	HostMem *mem.Space
	// HostDDR is the host memory timing model (discrete only).
	HostDDR *mem.HBM

	// XCDs are the accelerator dies; GPU is the default partition
	// presenting them per the spec's DevicePresentation.
	XCDs []*gpu.XCD
	GPU  *gpu.Partition
	// CPU is the in-package CCD complex (nil on accelerator-only parts);
	// HostCPU models the external host for discrete platforms.
	CPU     *cpu.Complex
	HostCPU *cpu.Complex

	// Power is the socket power model (nil for concept platforms).
	Power *power.Model
	// powerAlloc and powerScale are the allocation RunPhase last made
	// and its throttle scale; the power probes read them.
	powerAlloc power.Allocation
	powerScale float64
	// spans, when non-nil, records causal span trees on the memory and
	// dispatch hot paths. Nil costs the hot paths one pointer check.
	spans *spans.Recorder
	// memSpans records memAccess's span trees; nil when spans is.
	memSpans *memSpans

	// Fabric node handles.
	iodNodes  []fabric.NodeID
	xcdNodes  []fabric.NodeID
	ccdNodes  []fabric.NodeID
	hbmNodes  []fabric.NodeID // one per stack
	hostNode  fabric.NodeID
	ioNodes   []fabric.NodeID
	streamPos int64
}

// harvestSeed seeds the deterministic CU-harvesting RNG, so every build
// of a spec harvests the same CUs.
const harvestSeed = 0xC0FFEE

// NewPlatform assembles a platform from its spec. sp, when non-nil,
// records causal span trees for memory transactions and AQL dispatches;
// it is threaded in here, not attached afterwards, because buildCompute
// copies it into the GPU ExecEnv.
func NewPlatform(spec *config.PlatformSpec, sp *spans.Recorder) (*Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{Spec: spec, Net: fabric.New(), spans: sp}

	// Memory system.
	p.HBM = NewHBM(spec)
	if ic := spec.InfinityCache; ic != nil {
		p.InfCache = cache.NewInfinityCache(spec.HBM.TotalChannels(), ic.SliceBytes,
			ic.TotalBW, 25*sim.Nanosecond, ic.Prefetch)
	}
	p.DeviceMem = mem.NewSpace(spec.Name+".hbm", spec.HBM.TotalCapacity())
	if spec.Memory == config.UnifiedMemory {
		p.HostMem = p.DeviceMem
	} else {
		p.HostMem = mem.NewSpace("host.ddr", spec.Host.DDRBytes)
		p.HostDDR = mem.NewHBM("ddr5", 1, 12, spec.Host.DDRBW, spec.Host.DDRBytes, 90*sim.Nanosecond)
	}

	p.buildFabric()
	p.buildCompute()
	if sp != nil {
		p.memSpans = bindMemSpans(p)
	}

	switch spec.Name {
	case "MI300A":
		p.Power = power.MI300AModel()
	case "MI300X":
		p.Power = power.MI300XModel()
	}
	return p, nil
}

// NewHBM builds the channel timing model of spec's HBM, with a 120 ns
// array access latency.
func NewHBM(spec *config.PlatformSpec) *mem.HBM {
	return mem.NewHBM(spec.HBM.Generation, spec.HBM.Stacks, spec.HBM.ChannelsStack,
		spec.HBM.StackBW, spec.HBM.TotalCapacity(), 120*sim.Nanosecond)
}

// buildFabric lays down the fabric topology for the spec:
//
//   - MI300-style (4 IODs): 2×2 USR mesh, chiplets hybrid-bonded to their
//     IOD, two HBM stacks per IOD, two x16 ports per IOD.
//   - EHPv4 (1 server IOD): chiplets hang off the single IOD over
//     substrate SerDes; HBM attaches to the GPU dies; GPU-GPU traffic has
//     a long low-bandwidth path (§III.B, Fig. 4).
//   - MI250X / baseline (no IOD): GCDs own their HBM directly, with an
//     inter-GCD bridge on MI250X.
func (p *Platform) buildFabric() {
	spec := p.Spec
	switch {
	case spec.IODs == 4:
		p.buildMI300Fabric()
	case spec.IODs == 1:
		p.buildEHPv4Fabric()
	default:
		p.buildGCDFabric()
	}
	if spec.Memory == config.DiscreteMemory {
		host := p.Net.AddNode("host")
		p.hostNode = host.ID
		// Host attaches to the device over its link (PCIe or IF).
		attach := p.iodNodes
		if len(attach) == 0 {
			attach = p.xcdNodes
		}
		p.Net.Connect(host.ID, attach[0], spec.Host.LinkKind, spec.Host.LinkBW, 400*sim.Nanosecond)
	}
}

func (p *Platform) buildMI300Fabric() {
	spec := p.Spec
	// IODs in Fig. 9 arrangement: A,B top; C,D bottom.
	names := []string{"IOD-A", "IOD-B", "IOD-C", "IOD-D"}
	for _, n := range names {
		p.iodNodes = append(p.iodNodes, p.Net.AddNode(n).ID)
	}
	usrLat := 8 * sim.Nanosecond
	h, v := spec.IOD.USRHorizontalBW, spec.IOD.USRVerticalBW
	p.Net.Connect(p.iodNodes[0], p.iodNodes[1], config.LinkUSR, h, usrLat) // A-B
	p.Net.Connect(p.iodNodes[2], p.iodNodes[3], config.LinkUSR, h, usrLat) // C-D
	p.Net.Connect(p.iodNodes[0], p.iodNodes[2], config.LinkUSR, v, usrLat) // A-C
	p.Net.Connect(p.iodNodes[1], p.iodNodes[3], config.LinkUSR, v, usrLat) // B-D

	// HBM stacks: two per IOD, served through the IOD's fabric at the
	// stack's bandwidth.
	p.addHBMStacks(func(i int) fabric.NodeID { return p.iodNodes[i/2] })

	// Compute chiplets hybrid-bonded on top: XCD pairs fill IODs from A,
	// CCD trio takes the last XCD-free IOD (MI300A: 3×XCD-IODs + 1
	// CCD-IOD; MI300X: 4×XCD-IODs).
	bondBW := 2.2e12 // per-chiplet 3D interface, comfortably above 2 HBM stacks
	bondLat := 3 * sim.Nanosecond
	for i := 0; i < spec.XCDs; i++ {
		n := p.Net.AddNode("XCD" + strconv.Itoa(i))
		p.xcdNodes = append(p.xcdNodes, n.ID)
		p.Net.Connect(p.iodNodes[i/2], n.ID, config.LinkOnDie, bondBW, bondLat)
	}
	ccdIOD := spec.XCDs / 2 // first IOD without XCDs
	for i := 0; i < spec.CCDs; i++ {
		n := p.Net.AddNode("CCD" + strconv.Itoa(i))
		p.ccdNodes = append(p.ccdNodes, n.ID)
		p.Net.Connect(p.iodNodes[ccdIOD], n.ID, config.LinkOnDie, 0.4e12, bondLat)
	}
	for i := 0; i < spec.IODs*spec.IOD.X16Links; i++ {
		n := p.Net.AddNode("x16-" + strconv.Itoa(i))
		p.ioNodes = append(p.ioNodes, n.ID)
		p.Net.Connect(p.iodNodes[i/spec.IOD.X16Links], n.ID, config.LinkIFOP, spec.IOD.X16BWPerDir, 30*sim.Nanosecond)
	}
}

// addHBMStacks adds a fabric node per HBM stack, linking stack i to
// attach(i) at the stack's bandwidth.
func (p *Platform) addHBMStacks(attach func(i int) fabric.NodeID) {
	for i := 0; i < p.Spec.HBM.Stacks; i++ {
		n := p.Net.AddNode("HBM" + strconv.Itoa(i))
		p.hbmNodes = append(p.hbmNodes, n.ID)
		p.Net.Connect(attach(i), n.ID, config.LinkOnDie, p.Spec.HBM.StackBW, 15*sim.Nanosecond)
	}
}

func (p *Platform) buildEHPv4Fabric() {
	spec := p.Spec
	iod := p.Net.AddNode("serverIOD")
	p.iodNodes = []fabric.NodeID{iod.ID}
	// GPU dies carry the HBM PHYs; the CPU reaches HBM only via
	// IOD→GPU-die hops (Fig. 4 ③: "two die-to-die IF hops").
	serdesBW := 64e9 // DDR-class IF link (Fig. 4 ②)
	serdesLat := 25 * sim.Nanosecond
	for i := 0; i < spec.XCDs; i++ {
		n := p.Net.AddNode("GCD" + strconv.Itoa(i))
		p.xcdNodes = append(p.xcdNodes, n.ID)
		// Two IF links per GPU die to the server IOD.
		p.Net.Connect(iod.ID, n.ID, config.LinkSerDes, 2*serdesBW, serdesLat)
	}
	for i := 0; i < spec.CCDs; i++ {
		n := p.Net.AddNode("CCD" + strconv.Itoa(i))
		p.ccdNodes = append(p.ccdNodes, n.ID)
		p.Net.Connect(iod.ID, n.ID, config.LinkSerDes, serdesBW, serdesLat)
	}
	// HBM stacks distribute across the GPU dies.
	p.addHBMStacks(func(i int) fabric.NodeID { return p.xcdNodes[i%len(p.xcdNodes)] })
	// The long cross-package GCD-GCD path (Fig. 4 ①): a direct but slow
	// substrate link between the two GPU halves.
	half := len(p.xcdNodes) / 2
	if half > 0 && spec.CrossDieBWPerDir > 0 {
		p.Net.Connect(p.xcdNodes[0], p.xcdNodes[half], config.LinkSerDes,
			spec.CrossDieBWPerDir, 40*sim.Nanosecond)
	}
}

func (p *Platform) buildGCDFabric() {
	spec := p.Spec
	for i := 0; i < spec.XCDs; i++ {
		n := p.Net.AddNode("GCD" + strconv.Itoa(i))
		p.xcdNodes = append(p.xcdNodes, n.ID)
	}
	// Each GCD owns its share of HBM stacks directly.
	p.addHBMStacks(func(i int) fabric.NodeID { return p.xcdNodes[i*len(p.xcdNodes)/spec.HBM.Stacks] })
	if len(p.xcdNodes) == 2 && spec.CrossDieBWPerDir > 0 {
		p.Net.Connect(p.xcdNodes[0], p.xcdNodes[1], config.LinkSerDes,
			spec.CrossDieBWPerDir, 30*sim.Nanosecond)
	}
}

// buildCompute instantiates XCDs, the default GPU partition, and the CPU
// complexes.
func (p *Platform) buildCompute() {
	spec := p.Spec
	rng := sim.NewRNG(harvestSeed)
	for i := 0; i < spec.XCDs; i++ {
		p.XCDs = append(p.XCDs, gpu.NewXCD(i, spec.XCD, rng))
	}
	env := &gpu.ExecEnv{
		Mem:     p.DeviceMem,
		MemTime: p.GPUMemTime,
		Spans:   p.spans,
		SignalTime: func(start sim.Time, from, to int) sim.Time {
			if from == to || from >= len(p.xcdNodes) || to >= len(p.xcdNodes) {
				return start + 10*sim.Nanosecond
			}
			at, err := p.Net.Signal(start, p.xcdNodes[from], p.xcdNodes[to])
			if err != nil {
				return start + 20*sim.Nanosecond
			}
			return at
		},
	}
	// Default partition: all XCDs the first presented device owns.
	perDevice := spec.XCDs / spec.DevicePresentation
	p.GPU = gpu.NewPartition(spec.Name+".gpu0", p.XCDs[:perDevice], env, gpu.PolicyRoundRobin)

	if spec.CCDs > 0 {
		p.CPU = cpu.NewComplex(spec.CCD, spec.CCDs, &cpu.Env{MemTime: p.CPUMemTime})
	}
	if spec.Memory == config.DiscreteMemory {
		hostCCD := &config.CCDSpec{
			Cores:     spec.Host.Cores,
			ClockHz:   spec.Host.ClockHz,
			FlopsCore: spec.Host.FlopsCore,
		}
		p.HostCPU = cpu.NewComplex(hostCCD, 1, &cpu.Env{MemTime: p.HostMemTime})
	}
}

// SpanRecorder reports the platform's span recorder (nil when the
// platform was built without one).
func (p *Platform) SpanRecorder() *spans.Recorder { return p.spans }

// XCDNode reports XCD i's fabric node.
func (p *Platform) XCDNode(i int) fabric.NodeID { return p.xcdNodes[i%len(p.xcdNodes)] }

// CCDNode reports CCD i's fabric node (falls back to the first IOD when
// the platform has no CCDs).
func (p *Platform) CCDNode(i int) fabric.NodeID {
	if len(p.ccdNodes) == 0 {
		return p.iodNodes[0]
	}
	return p.ccdNodes[i%len(p.ccdNodes)]
}

// HBMNode reports HBM stack s's fabric node.
func (p *Platform) HBMNode(s int) fabric.NodeID { return p.hbmNodes[s%len(p.hbmNodes)] }

// IODNode reports IOD i's fabric node (GCD node when the platform has no
// IODs).
func (p *Platform) IODNode(i int) fabric.NodeID {
	if len(p.iodNodes) == 0 {
		return p.xcdNodes[i%len(p.xcdNodes)]
	}
	return p.iodNodes[i%len(p.iodNodes)]
}

// Release hands the storage of the platform's caches (the Infinity
// Cache slices and the XCD L2s) and of its address spaces back to their
// packages' free lists, for later platforms to reuse.
// Counters stay readable; any later cache fill or memory access panics.
// The runner releases every platform a run built once the run has ended.
func (p *Platform) Release() {
	if p.InfCache != nil {
		p.InfCache.Release()
	}
	for _, x := range p.XCDs {
		x.Release()
	}
	// On an APU HostMem is DeviceMem, whose second Release does nothing.
	p.DeviceMem.Release()
	p.HostMem.Release()
}

// ResetStats clears all component statistics (topology retained).
func (p *Platform) ResetStats() {
	p.Net.ResetStats()
	p.HBM.ResetStats()
	if p.InfCache != nil {
		p.InfCache.ResetStats()
	}
	if p.HostDDR != nil {
		p.HostDDR.ResetStats()
	}
	for _, x := range p.XCDs {
		x.ResetStats()
	}
	if p.CPU != nil {
		p.CPU.ResetStats()
	}
	if p.HostCPU != nil {
		p.HostCPU.ResetStats()
	}
	p.streamPos = 0
}
