package cpu

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sim"
)

func newComplex(env *Env) *Complex {
	return NewComplex(config.MI300A().CCD, 3, env)
}

func TestComplexGeometry(t *testing.T) {
	c := newComplex(nil)
	if c.Cores() != 24 {
		t.Errorf("cores = %d, want 24 (§IV.C)", c.Cores())
	}
	if got := c.L3(0).Size(); got != 32<<20 {
		t.Errorf("L3 = %d, want 32 MiB", got)
	}
}

func TestExecuteComputeTime(t *testing.T) {
	c := newComplex(nil)
	// One core at 3.7 GHz × 16 flops/clk = 59.2 GF. 59.2e9 flops = 1 s.
	done := c.ExecuteParallel(0, Task{Name: "t", Flops: 59.2e9}, 1)
	if got := done.Seconds(); got < 0.999 || got > 1.001 {
		t.Errorf("compute time = %v s, want ~1", got)
	}
}

func TestExecuteParallelScales(t *testing.T) {
	c := newComplex(nil)
	t1 := c.ExecuteParallel(0, Task{Flops: 59.2e9}, 1)
	c.ResetStats()
	t24 := c.ExecuteParallel(0, Task{Flops: 59.2e9}, 24)
	speedup := float64(t1) / float64(t24)
	if speedup < 23 || speedup > 25 {
		t.Errorf("24-core speedup = %.1f, want ~24", speedup)
	}
}

func TestExecuteParallelDefaultChunks(t *testing.T) {
	c := newComplex(nil)
	c.ExecuteParallel(0, Task{Flops: 24e6}, 0)
	if got := c.Stats().Tasks; got != 24 {
		t.Errorf("default chunks ran %d tasks, want 24", got)
	}
}

func TestTasksQueueOnBusyCores(t *testing.T) {
	c := NewComplex(config.MI300A().CCD, 1, nil) // 8 cores
	var last sim.Time
	for i := 0; i < 16; i++ {
		last = c.ExecuteParallel(0, Task{Flops: 59.2e9}, 1) // 1s each
	}
	// 16 one-second tasks on 8 cores: finish at ~2 s.
	if got := last.Seconds(); got < 1.99 || got > 2.01 {
		t.Errorf("16 tasks on 8 cores finished at %v s, want ~2", got)
	}
}

func TestBodyExecutesFunctionally(t *testing.T) {
	space := mem.NewSpace("ddr", 1<<24)
	c := newComplex(&Env{Mem: space})
	addr, _ := space.Alloc(8*24, 0)
	c.ExecuteParallel(0, Task{
		Flops: 1000,
		Body: func(env *Env, chunk int) {
			env.Mem.WriteFloat64(addr+int64(chunk)*8, float64(chunk)*1.5)
		},
	}, 24)
	for i := int64(0); i < 24; i++ {
		if got := space.ReadFloat64(addr + i*8); got != float64(i)*1.5 {
			t.Fatalf("chunk %d wrote %v", i, got)
		}
	}
}

func TestMemTimeDominatesMemBoundTask(t *testing.T) {
	ddr := mem.NewHBM("ddr", 1, 12, 460e9, 1<<30, 80*sim.Nanosecond)
	var cursor int64
	env := &Env{
		MemTime: func(start sim.Time, ccd int, bytes int64, write bool) sim.Time {
			a := cursor % (1 << 28)
			cursor += bytes
			return ddr.Access(start, a, bytes, write)
		},
	}
	c := newComplex(env)
	// 46 GB of traffic at 460 GB/s floor = 100 ms; trivial compute.
	done := c.ExecuteParallel(0, Task{Flops: 1e6, BytesRead: 46e9}, 1)
	if got := done.Milliseconds(); got < 99 {
		t.Errorf("mem-bound task = %v ms, want >= ~100", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := newComplex(nil)
	c.ExecuteParallel(0, Task{Flops: 100, BytesRead: 64, BytesWritten: 32}, 1)
	st := c.Stats()
	if st.Tasks != 1 || st.Flops != 100 || st.BytesRead != 64 || st.BytesWritten != 32 {
		t.Errorf("stats = %+v", st)
	}
	c.ResetStats()
	if c.Stats().Tasks != 0 {
		t.Error("ResetStats failed")
	}
}

// Property: parallel execution is never slower than serial for the same
// total work, and both conserve total flops in stats.
func TestParallelNeverSlowerProperty(t *testing.T) {
	f := func(flopsMant uint16, chunks uint8) bool {
		flops := float64(flopsMant)*1e6 + 1e6
		n := int(chunks)%24 + 1
		c1 := newComplex(nil)
		serial := c1.ExecuteParallel(0, Task{Flops: flops}, 1)
		c2 := newComplex(nil)
		parallel := c2.ExecuteParallel(0, Task{Flops: flops}, n)
		return parallel <= serial+sim.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
