package progmodel

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// This file models the §VI.B contrast case: "some platforms provide the
// appearance of unified memory to the software (e.g., via page migration
// to transparently copy data between the CPU's DDR and the GPU's HBM)".
// The program looks like the APU version — one pointer, no explicit
// copies — but the runtime migrates 4 KB pages on demand, paying a fault
// cost per page plus the link transfer. MI300A "avoids such data movement
// overheads by matching the actual physical memory organization with the
// programmer's view."

// pageFaultOverhead is the runtime cost of servicing one page fault
// (interrupt, driver, TLB shootdown), on top of moving the page.
const pageFaultOverhead = 15 * sim.Microsecond

// migrationBatch is how many pages a modern driver migrates per fault
// (fault-ahead batching).
const migrationBatch = 16

// MigrationStats reports the page traffic of a managed-memory run.
type MigrationStats struct {
	PagesToDevice int64
	PagesToHost   int64
	Faults        int64
}

// RunManaged executes the same y = a*x + b program as Fig. 14 on a
// discrete platform with driver-managed page migration: allocation and
// initialization on the host, transparent page migration when the kernel
// first touches each page, and migration back when the CPU post-processes.
func RunManaged(p *core.Platform, n int) (*Result, *MigrationStats, error) {
	if p.Spec.Memory != config.DiscreteMemory {
		return nil, nil, fmt.Errorf("progmodel: managed memory models a discrete platform")
	}
	r := &Result{Program: "managed-migration", Platform: p.Spec.Name}
	st := &MigrationStats{}
	c := hostCPU(p)
	bytes := int64(n) * 8
	const page = 4096

	// One "pointer": backing starts on the host.
	hx, err := p.HostMem.Alloc(bytes, page)
	if err != nil {
		return nil, nil, err
	}
	hy, err := p.HostMem.Alloc(bytes, page)
	if err != nil {
		return nil, nil, err
	}
	dx, err := p.DeviceMem.Alloc(bytes, page)
	if err != nil {
		return nil, nil, err
	}
	dy, err := p.DeviceMem.Alloc(bytes, page)
	if err != nil {
		return nil, nil, err
	}

	t := r.step("managedMalloc", 0, sim.Microsecond)
	t = r.step("init(host pages)", t, c.ExecuteParallel(t, initTask(p.HostMem, hx, n), 24))

	// Kernel launch: the GPU faults in every x page (read) and every y
	// page (write allocate) on first touch.
	pages := (bytes + page - 1) / page
	migrate := func(start sim.Time, nPages int64, toDevice bool) sim.Time {
		st.Faults += (nPages + migrationBatch - 1) / migrationBatch
		if toDevice {
			st.PagesToDevice += nPages
		} else {
			st.PagesToHost += nPages
		}
		faultTime := sim.Time((nPages+migrationBatch-1)/migrationBatch) * pageFaultOverhead
		return p.HostLinkTransfer(start+faultTime, nPages*page, toDevice)
	}
	t = r.step("fault+migrate x,y H2D", t, migrate(t, 2*pages, true))
	mem.Copy(p.DeviceMem, dx, p.HostMem, hx, bytes)

	k := axpyKernel(dx, dy, n)
	done, err := p.GPU.Dispatch(t, k, n, 256, 0)
	if err != nil {
		return nil, nil, err
	}
	t = r.step("kernel+sync", t, done)

	// CPU post-processing touches y: pages migrate back.
	t = r.step("fault+migrate y D2H", t, migrate(t, pages, false))
	mem.Copy(p.HostMem, hy, p.DeviceMem, dy, bytes)
	r.step("post(host)", t, c.ExecuteParallel(t, postTask(n), 24))
	r.CopyBytes = 3 * pages * page
	r.Verified = sumAndVerify(p.HostMem, hy, n)
	return r, st, nil
}
