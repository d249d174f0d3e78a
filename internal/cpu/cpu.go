// Package cpu models the host-processor side of MI300A: three "Zen 4"
// CCDs of eight cores each (§IV.C) that run the operating system, the
// un-offloaded portions of user code, and the kernel launch/synchronize
// choreography of the programming model (§VI). The model executes Task
// closures functionally against the shared memory space while charging
// time from the cores' peak arithmetic rate and the platform memory path —
// the same split used on the GPU side.
package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Env supplies the memory environment for CPU execution.
type Env struct {
	// Mem is the address space tasks operate on (the unified HBM on an
	// APU, host DDR on a discrete platform).
	Mem *mem.Space
	// MemTime charges bulk memory traffic and returns completion. Nil
	// means memory time is not modeled.
	MemTime func(start sim.Time, ccd int, bytes int64, write bool) sim.Time
}

func (e *Env) memTime(start sim.Time, ccd int, bytes int64, write bool) sim.Time {
	if e == nil || e.MemTime == nil || bytes <= 0 {
		return start
	}
	return e.MemTime(start, ccd, bytes, write)
}

// Task is a unit of CPU work: a functional body plus a resource footprint.
type Task struct {
	Name         string
	Flops        float64
	BytesRead    int64
	BytesWritten int64
	// Body optionally performs real loads/stores; it receives the task's
	// chunk index.
	Body func(env *Env, chunk int)
}

// Core is one Zen 4 core with an availability horizon.
type Core struct {
	CCD      int
	Index    int
	nextFree sim.Time
	tasks    uint64
}

// Stats accumulates complex-wide execution counters.
type Stats struct {
	Tasks        uint64
	Flops        float64
	BytesRead    uint64
	BytesWritten uint64
	BusyTime     sim.Time
}

// Complex is the full CPU complex: CCDs × cores sharing per-CCD L3s.
type Complex struct {
	Spec  *config.CCDSpec
	CCDs  int
	cores []*Core
	l3s   []*cache.SetAssoc
	env   *Env
	stats Stats
}

// NewComplex builds a CPU complex of ccds dies from the spec.
func NewComplex(spec *config.CCDSpec, ccds int, env *Env) *Complex {
	if spec == nil || ccds <= 0 {
		panic(fmt.Sprintf("cpu: invariant violated: a complex needs a CCD spec and a positive die count (spec=%v ccds=%d)", spec, ccds))
	}
	if env == nil {
		env = &Env{}
	}
	c := &Complex{Spec: spec, CCDs: ccds, env: env}
	for d := 0; d < ccds; d++ {
		for i := 0; i < spec.Cores; i++ {
			c.cores = append(c.cores, &Core{CCD: d, Index: i})
		}
		c.l3s = append(c.l3s, cache.NewSetAssoc(fmt.Sprintf("ccd%d.l3", d), spec.L3Bytes, 64, 16))
	}
	return c
}

// Cores reports the total core count.
func (c *Complex) Cores() int { return len(c.cores) }

// L3 returns CCD d's L3 model.
func (c *Complex) L3(d int) *cache.SetAssoc { return c.l3s[d] }

// Release hands the L3s' tag storage back (see cache.SetAssoc.Release).
func (c *Complex) Release() {
	for _, l3 := range c.l3s {
		l3.Release()
	}
}

// Stats returns a copy of the counters.
func (c *Complex) Stats() Stats { return c.stats }

// ResetStats zeroes counters and core availability.
func (c *Complex) ResetStats() {
	c.stats = Stats{}
	for _, core := range c.cores {
		core.nextFree = 0
		core.tasks = 0
	}
}

// coreFlops reports one core's peak flops/sec.
func (c *Complex) coreFlops() float64 { return c.Spec.ClockHz * c.Spec.FlopsCore }

func (c *Complex) earliestCore() *Core {
	best := c.cores[0]
	for _, core := range c.cores[1:] {
		if core.nextFree < best.nextFree {
			best = core
		}
	}
	return best
}

// run places one task chunk on the earliest-free core.
func (c *Complex) run(start sim.Time, t Task, chunk int) sim.Time {
	core := c.earliestCore()
	begin := start
	if core.nextFree > begin {
		begin = core.nextFree
	}
	if t.Body != nil {
		t.Body(c.env, chunk)
	}
	computeDone := begin + sim.FromSeconds(t.Flops/c.coreFlops())
	// Loads and stores pipeline from the task's start.
	rdDone := c.env.memTime(begin, core.CCD, t.BytesRead, false)
	wrDone := c.env.memTime(begin, core.CCD, t.BytesWritten, true)
	done := computeDone
	if rdDone > done {
		done = rdDone
	}
	if wrDone > done {
		done = wrDone
	}
	core.nextFree = done
	core.tasks++
	c.stats.Tasks++
	c.stats.Flops += t.Flops
	c.stats.BytesRead += uint64(t.BytesRead)
	c.stats.BytesWritten += uint64(t.BytesWritten)
	c.stats.BusyTime += done - begin
	return done
}

// TaskTime reports the single-core duration of a task without placing it
// on a core (compute-only; memory time must be charged by the caller).
// Used when modeling an explicitly single-threaded consumer loop.
func (c *Complex) TaskTime(t Task) sim.Time {
	return sim.FromSeconds(t.Flops / c.coreFlops())
}

// ExecuteParallel splits the task into chunks equal chunks across the
// complex's cores (an OpenMP-style parallel region) and returns when the
// last chunk retires. Resource footprints are divided evenly; the Body is
// called once per chunk with its index.
func (c *Complex) ExecuteParallel(start sim.Time, t Task, chunks int) sim.Time {
	if chunks <= 0 {
		chunks = len(c.cores)
	}
	per := Task{
		Name:         t.Name,
		Flops:        t.Flops / float64(chunks),
		BytesRead:    t.BytesRead / int64(chunks),
		BytesWritten: t.BytesWritten / int64(chunks),
		Body:         t.Body,
	}
	end := start
	for i := 0; i < chunks; i++ {
		if done := c.run(start, per, i); done > end {
			end = done
		}
	}
	return end
}
