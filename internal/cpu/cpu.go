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

	"repro/internal/config"
	"repro/internal/sim"
)

// Env supplies the memory environment for CPU execution.
type Env struct {
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
	// Body optionally performs real loads/stores on the memory space it
	// closes over; it receives the task's chunk index.
	Body func(chunk int)
}

// Core is one Zen 4 core with an availability horizon.
type Core struct {
	CCD      int
	Index    int
	nextFree sim.Time
}

// Stats accumulates complex-wide execution counters.
type Stats struct {
	Tasks        uint64
	Flops        float64
	BytesRead    uint64
	BytesWritten uint64
	BusyTime     sim.Time
}

// Complex is the full CPU complex: CCDs × cores. The CCDs' caches are not
// modelled: CPU memory time is charged on the platform memory path.
type Complex struct {
	Spec  *config.CCDSpec
	cores []Core
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
	c := &Complex{Spec: spec, env: env, cores: make([]Core, ccds*spec.Cores)}
	for i := range c.cores {
		c.cores[i] = Core{CCD: i / spec.Cores, Index: i % spec.Cores}
	}
	return c
}

// Cores reports the total core count.
func (c *Complex) Cores() int { return len(c.cores) }

// Stats returns a copy of the counters.
func (c *Complex) Stats() Stats { return c.stats }

// ResetStats zeroes counters and core availability.
func (c *Complex) ResetStats() {
	c.stats = Stats{}
	for i := range c.cores {
		c.cores[i].nextFree = 0
	}
}

// coreFlops reports one core's peak flops/sec.
func (c *Complex) coreFlops() float64 { return c.Spec.ClockHz * c.Spec.FlopsCore }

func (c *Complex) earliestCore() *Core {
	best := &c.cores[0]
	for i := range c.cores {
		if c.cores[i].nextFree < best.nextFree {
			best = &c.cores[i]
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
		t.Body(chunk)
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
