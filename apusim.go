// Package apusim is a simulator of the AMD Instinct MI300A APU and MI300X
// accelerator as described in "Realizing the AMD Exascale Heterogeneous
// Processor Vision" (ISCA 2024), together with the platforms the paper
// compares against: the MI250X accelerator, the EHPv4 research concept,
// and a contemporary baseline GPU.
//
// The package is a facade over the internal architecture models:
//
//   - Platform assembly (fabric, HBM + Infinity Cache, XCD/CCD compute,
//     power) — internal/core
//   - Discrete-event kernel, product configs, physical chiplet
//     construction, thermal solver, partitioning, node topologies —
//     internal/{sim,config,chiplet,thermal,partition,topology}
//   - Programming-model programs and application workload proxies —
//     internal/{progmodel,workload}
//
// Use the New* constructors to build platforms, dispatch kernels through
// Platform.GPU, run the programming-model programs, or regenerate any of
// the paper's tables and figures via the Experiment functions in
// experiments.go.
package apusim

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/progmodel"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Re-exported model types, so downstream users program against apusim
// without importing internal packages (which Go would refuse anyway).
type (
	// Platform is a fully assembled processor package model.
	Platform = core.Platform
	// PlatformSpec describes a product configuration.
	PlatformSpec = config.PlatformSpec
	// PhaseResult is a phase's timing breakdown.
	PhaseResult = core.PhaseResult
	// KernelSpec is a GPU kernel (functional body + resource footprint).
	KernelSpec = gpu.KernelSpec
	// ExecEnv is the kernel execution environment.
	ExecEnv = gpu.ExecEnv
	// Time is a simulated timestamp in picoseconds.
	Time = sim.Time
	// Workload is a named phase sequence.
	Workload = workload.Workload
	// ProgramResult is a programming-model program outcome (Fig. 14).
	ProgramResult = progmodel.Result
	// OverlapResult is the fine-grained overlap outcome (Fig. 15).
	OverlapResult = progmodel.OverlapResult
	// Node is a multi-socket system topology.
	Node = topology.Node
)

// Data types (paper Table 1).
const (
	FP64 = config.FP64
	FP32 = config.FP32
	TF32 = config.TF32
	FP16 = config.FP16
	BF16 = config.BF16
	FP8  = config.FP8
	INT8 = config.INT8
)

// Engine classes.
const (
	Vector = config.Vector
	Matrix = config.Matrix
)

// NewMI300A builds the MI300A APU platform (§IV): 228 CUs across six
// XCDs, 24 "Zen 4" cores across three CCDs, 128 GB of unified HBM3 behind
// a 256 MB Infinity Cache, all on four USR-meshed IODs.
func NewMI300A() (*Platform, error) { return New(config.MI300A()) }

// NewMI300X builds the MI300X accelerator platform (§VII): the CCDs
// swapped for two more XCDs (304 CUs) and 192 GB of HBM3, hosted over
// PCIe.
func NewMI300X() (*Platform, error) { return New(config.MI300X()) }

// NewMI250X builds the previous-generation MI250X accelerator: two CDNA 2
// GCDs presented as separate devices with 128 GB of HBM2e, discrete from
// its EPYC host.
func NewMI250X() (*Platform, error) { return New(config.MI250X()) }

// NewEHPv4 builds the EHPv4 research concept (§II-III): the APU that was
// almost built for Frontier, including its documented shortcomings.
func NewEHPv4() (*Platform, error) { return New(config.EHPv4()) }

// NewBaselineGPU builds the H100-class baseline used in the Fig. 21
// inference comparison.
func NewBaselineGPU() (*Platform, error) { return New(config.BaselineGPU()) }

// SpecMI300A returns the MI300A product configuration.
func SpecMI300A() *PlatformSpec { return config.MI300A() }

// SpecMI300X returns the MI300X product configuration.
func SpecMI300X() *PlatformSpec { return config.MI300X() }

// SpecMI250X returns the MI250X product configuration.
func SpecMI250X() *PlatformSpec { return config.MI250X() }

// RunCPUOnly executes the Fig. 14(a) CPU-only program on p.
func RunCPUOnly(p *Platform, n int) (*ProgramResult, error) { return progmodel.RunCPUOnly(p, n) }

// RunDiscrete executes the Fig. 14(b) discrete-GPU program (hipMalloc /
// hipMemcpy / kernel / hipMemcpy) on a discrete platform.
func RunDiscrete(p *Platform, n int) (*ProgramResult, error) { return progmodel.RunDiscrete(p, n) }

// RunAPU executes the Fig. 14(c) zero-copy unified-memory program on an
// APU platform.
func RunAPU(p *Platform, n int) (*ProgramResult, error) { return progmodel.RunAPU(p, n) }

// RunOverlap executes the Fig. 15 fine-grained GPU/CPU overlap program.
func RunOverlap(p *Platform, n, chunks int) (*OverlapResult, error) {
	return progmodel.RunOverlap(p, n, chunks)
}

// RunWorkload executes a workload proxy on a platform, returning seconds
// and the per-phase breakdown.
func RunWorkload(w Workload, p *Platform) (float64, []PhaseResult) { return workload.Run(w, p) }

// QuadAPUNode builds the Fig. 18(a) 4×MI300A node.
func QuadAPUNode() (*Node, error) { return topology.QuadAPUNode() }

// OctoAcceleratorNode builds the Fig. 18(b) 8×MI300X node.
func OctoAcceleratorNode() (*Node, error) { return topology.OctoAcceleratorNode() }
