// Package config is the product database for the simulator: chiplet counts,
// clocks, memory geometry, link maps, and the per-clock-per-CU peak-rate
// tables from the paper's Table 1. Every other package derives its model
// parameters from a PlatformSpec defined here, so the platforms the paper
// compares (MI250X, MI300A, MI300X, the EHPv4 concept, and a baseline
// discrete GPU) are each a single constructor in this package.
package config

import "fmt"

// DataType enumerates the arithmetic formats in the paper's Table 1.
type DataType int

const (
	FP64 DataType = iota
	FP32
	TF32
	FP16
	BF16
	FP8
	INT8
	numDataTypes
)

// String returns the conventional name for the data type.
func (d DataType) String() string {
	switch d {
	case FP64:
		return "FP64"
	case FP32:
		return "FP32"
	case TF32:
		return "TF32"
	case FP16:
		return "FP16"
	case BF16:
		return "BF16"
	case FP8:
		return "FP8"
	case INT8:
		return "INT8"
	default:
		return fmt.Sprintf("DataType(%d)", int(d))
	}
}

// Bytes reports the storage size of one element of the data type.
func (d DataType) Bytes() int {
	switch d {
	case FP64:
		return 8
	case FP32, TF32:
		return 4
	case FP16, BF16:
		return 2
	case FP8, INT8:
		return 1
	default:
		return 0
	}
}

// AllDataTypes lists every data type in Table 1 order.
func AllDataTypes() []DataType {
	return []DataType{FP64, FP32, TF32, FP16, BF16, FP8, INT8}
}

// EngineClass distinguishes the CU's vector (SIMD) pipelines from the Matrix
// Cores.
type EngineClass int

const (
	Vector EngineClass = iota
	Matrix
)

// String returns the engine class name.
func (e EngineClass) String() string {
	if e == Vector {
		return "Vector"
	}
	return "Matrix"
}

// RateTable gives peak operations per clock per CU for each engine class and
// data type, i.e. one column group of the paper's Table 1. A zero entry
// means the format is unsupported ("n/a" in the paper).
type RateTable struct {
	// Name identifies the compute architecture (e.g. "CDNA 2").
	Name string
	// VectorOps[d] is peak vector ops/clk/CU for data type d.
	VectorOps [numDataTypes]float64
	// MatrixOps[d] is peak matrix ops/clk/CU for data type d.
	MatrixOps [numDataTypes]float64
	// SparseMatrixOps[d] is the peak with 4:2 structured sparsity; zero
	// means sparsity is unsupported for that type.
	SparseMatrixOps [numDataTypes]float64
}

// Ops reports ops/clk/CU for the class and type (dense).
func (r *RateTable) Ops(class EngineClass, d DataType) float64 {
	if d < 0 || d >= numDataTypes {
		return 0
	}
	if class == Vector {
		return r.VectorOps[d]
	}
	return r.MatrixOps[d]
}

// SparseOps reports the 4:2-sparse matrix rate, falling back to the dense
// matrix rate when sparsity is unsupported.
func (r *RateTable) SparseOps(d DataType) float64 {
	if d < 0 || d >= numDataTypes {
		return 0
	}
	if s := r.SparseMatrixOps[d]; s > 0 {
		return s
	}
	return r.MatrixOps[d]
}

// CDNA2Rates is the MI250X column of the paper's Table 1.
func CDNA2Rates() *RateTable {
	return &RateTable{
		Name: "CDNA 2",
		VectorOps: [numDataTypes]float64{
			FP64: 128, FP32: 128,
		},
		MatrixOps: [numDataTypes]float64{
			FP64: 256, FP32: 256, FP16: 1024, BF16: 1024, INT8: 1024,
		},
	}
}

// CDNA3Rates is the MI300A/MI300X column of the paper's Table 1, including
// the FP8 additions and 4:2 sparsity peaks (8192 ops/clk/CU for FP8/INT8).
func CDNA3Rates() *RateTable {
	return &RateTable{
		Name: "CDNA 3",
		VectorOps: [numDataTypes]float64{
			FP64: 128, FP32: 256,
		},
		MatrixOps: [numDataTypes]float64{
			FP64: 256, FP32: 256, TF32: 1024, FP16: 2048, BF16: 2048,
			FP8: 4096, INT8: 4096,
		},
		SparseMatrixOps: [numDataTypes]float64{
			TF32: 2048, FP16: 4096, BF16: 4096, FP8: 8192, INT8: 8192,
		},
	}
}
