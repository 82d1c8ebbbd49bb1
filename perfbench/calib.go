package main

import (
	goruntime "runtime"
	"sync"
	"syscall"
)

// Host speed drifts. Other tenants of the physical machine share its cores,
// caches and clock, so the same flood costs up to a fifth more CPU in one
// stretch of a run than in another, and whole runs land in faster or slower
// stretches. A fixed kernel timed on every core just before and just after
// each flood tracks that drift, and each flood's CPU time is scaled by it;
// README.md gives how much that steadies cpu_us_per_tuple. The kernel is
// the benchmark's own code, so a change to the engine cannot move it.

// calibIters is the kernel's length per thread, about 70 ms of CPU on the
// reference host.
const calibIters = 5_000_000

// calibRefS is the kernel's per-thread CPU seconds on the reference host
// (the 2-vCPU x86 VM the benchmark was written on): 72.25 ms, the median of
// 96 calibrations over eight ets-union runs. Scaled flood CPU is expressed
// at that speed, so on that host it reads close to the unscaled figure.
const calibRefS = 0.07225

// calibTabs are the kernel's tables, one per thread, each 256 KiB: more than
// L1 and within L2, like the engine's hot state during a flood. They are
// made at start-up, so the heap baselines (see drive) include them.
var calibTabs = func() [][]uint64 {
	tabs := make([][]uint64, goruntime.GOMAXPROCS(0))
	for i := range tabs {
		tabs[i] = make([]uint64, 1<<15)
	}
	return tabs
}()

// calibSink keeps the kernel's results live.
var calibSink uint64

// calibrate runs the kernel on GOMAXPROCS threads at once, so every core the
// engine uses is loaded as it is during a flood, and returns the mean
// per-thread CPU seconds.
func calibrate() float64 {
	n := len(calibTabs)
	cpu := make([]float64, n)
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			goruntime.LockOSThread()
			defer goruntime.UnlockOSThread()
			t0 := threadCPU()
			sums[i] = kernel(calibTabs[i], calibIters)
			cpu[i] = threadCPU() - t0
		}(i)
	}
	wg.Wait()
	var total float64
	for i := range cpu {
		calibSink += sums[i]
		total += cpu[i]
	}
	return total / float64(n)
}

// kernel hashes its way through tab: a table walk with a data-dependent
// branch, so it exercises the caches and the branch predictor as well as
// the ALUs.
func kernel(tab []uint64, n int) uint64 {
	mask := uint64(len(tab) - 1)
	x := uint64(len(tab))
	for i := 0; i < n; i++ {
		x = mix(x + uint64(i))
		j := x & mask
		tab[j] += x
		if tab[j]&1 == 0 {
			x ^= tab[(j*7)&mask]
		}
	}
	return x
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does not
// name.
const rusageThread = 1

// threadCPU is the calling thread's user plus system CPU time so far.
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
