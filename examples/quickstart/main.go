// Quickstart: build an MI300A platform with telemetry attached, allocate
// arrays in its unified HBM, dispatch a real kernel across all six XCDs
// through the AQL queue machinery, and print what the memory system,
// fabric, and sampled telemetry probes saw.
package main

import (
	"fmt"
	"log"

	apusim "repro"
)

func main() {
	// 1. Assemble the APU: 6 XCDs + 3 CCDs on 4 IODs, 128 GB HBM3 behind
	// a 256 MB Infinity Cache, all coherent in one package. Then attach a
	// telemetry recorder: every component registers its probes on it, it
	// profiles the engine the sampler runs on, and it samples every 10 µs.
	apu, err := apusim.NewMI300A()
	if err != nil {
		log.Fatal(err)
	}
	eng := apusim.NewEngine()
	rec := apusim.NewRecorder()
	apu.Instrument(rec)
	rec.ObserveEngine(eng)
	rec.SetCadence(10 * apusim.Microsecond)
	fmt.Printf("platform: %s — %d CUs, %d cores, %.1f TB/s HBM, %d MB Infinity Cache\n",
		apu.Spec.Name, apu.Spec.TotalCUs(), apu.Spec.TotalCores(),
		apu.Spec.PeakMemoryBW()/1e12, apu.Spec.InfinityCacheBytes()>>20)

	// 2. Allocate two vectors directly in the unified memory. No
	// hipMalloc, no staging buffers: CPU and GPU share these pages.
	const n = 1 << 20
	x, err := apu.DeviceMem.Alloc(n*8, 4096)
	if err != nil {
		log.Fatal(err)
	}
	y, err := apu.DeviceMem.Alloc(n*8, 4096)
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		apu.DeviceMem.WriteFloat64(x+i*8, float64(i))
	}

	// 3. Define a kernel: daxpy with a functional body plus its resource
	// footprint for the timing model.
	k := &apusim.KernelSpec{
		Name:  "daxpy",
		Class: apusim.Vector, Dtype: apusim.FP64,
		FlopsPerItem: 2, BytesReadPerItem: 16, BytesWrittenPerItem: 8,
		Body: func(env *apusim.ExecEnv, xcd, wgID, wgSize int, kernarg int64) {
			lo := int64(wgID * wgSize)
			hi := lo + int64(wgSize)
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				v := env.Mem.ReadFloat64(x + i*8)
				env.Mem.WriteFloat64(y+i*8, 2.5*v+1.0)
			}
		},
	}

	// 4. Dispatch. One AQL packet; the ACE in every XCD picks up its
	// subset of the workgroups (the Fig. 13 cooperative flow).
	done, err := apu.GPU.Dispatch(0, k, n, 256, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel %s over %d elements completed at %v\n", k.Name, n, done)

	// 5. The CPU reads the results immediately — same physical memory.
	ok := true
	for i := int64(0); i < n; i += n / 8 {
		want := 2.5*float64(i) + 1.0
		if got := apu.DeviceMem.ReadFloat64(y + i*8); got != want {
			ok = false
			fmt.Printf("  y[%d] = %v, want %v\n", i, got, want)
		}
	}
	fmt.Printf("spot check passed: %v\n", ok)

	// 6. What the hardware models observed.
	for _, xcd := range apu.XCDs {
		st := xcd.Stats()
		fmt.Printf("  XCD%d: %d workgroups, %.1f Mflops, %d sync msgs\n",
			xcd.ID, st.Workgroups, st.Flops/1e6, st.SyncMessages)
	}
	ic := apu.InfCache.Stats()
	fmt.Printf("  Infinity Cache: %.1f%% hit rate (%d prefetches)\n", 100*ic.HitRate(), ic.Prefetches)
	fmt.Printf("  HBM bytes moved: %d MB; fabric energy: %.1f µJ\n",
		apu.HBM.BytesMoved()>>20, apu.Net.TotalEnergyPJ()/1e6)

	// 7. Sampled telemetry: arm a sampler over the kernel's span and drain
	// the engine — every registered probe (fabric, HBM, cache, XCDs,
	// power/thermal) gets one value per tick. The same recorder can feed
	// WriteCSV/WriteJSON or counter tracks in a Chrome trace (WriteTrace).
	ticks := apusim.NewSampler(eng, rec, 0).Arm(done)
	eng.RunAll()
	fmt.Printf("telemetry: %d probes x %d ticks (schema %s)\n",
		rec.Probes(), ticks, apusim.TelemetrySchema)
	if s, ok := rec.SeriesByName("hbm.live_channels"); ok {
		fmt.Printf("  hbm.live_channels: %.0f\n", s.Values[len(s.Values)-1])
	}
	if s, ok := rec.SeriesByName("power.total_w"); ok {
		fmt.Printf("  power.total_w: %.0f W idle floor\n", s.Values[len(s.Values)-1])
	}
}
