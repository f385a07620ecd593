package main

import (
	"sync"
	"sync/atomic"
)

// Host-speed calibration. The benchmark host's speed drifts by tens of
// percent over minutes — the CPU time of one deterministic run moves
// with it — so raw times of one workload spread between runs more than
// a change worth measuring would move them. The run therefore times a
// fixed kernel after every timed region and reports each time scaled
// by calRef over the kernel's median: seconds on a host running at the
// reference speed. Only the host can move the kernel; no change to the
// program can, because the kernel is the benchmark's own code.

// calRef is the kernel's median wall time on the reference host (a
// two-vCPU KVM guest on an Intel Xeon), in seconds.
const calRef = 0.175

// calTable is the kernel's working set: 32 MiB, past the private
// caches, so the kernel stalls on memory the way the simulator's table
// lookups do. A kernel that fits in cache tracks the host's drift
// worse.
var calTable = func() []uint64 {
	t := make([]uint64, 1<<22)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return t
}()

var calSink atomic.Uint64

// calibrate runs the kernel — a hash chain with dependent random reads
// into calTable — on every worker and returns its wall time in seconds.
func calibrate() float64 {
	const steps = 1 << 20
	t0 := now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			var acc uint64
			for i := 0; i < steps; i++ {
				x += 0x9e3779b97f4a7c15
				z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				acc += calTable[(z^acc)&(1<<22-1)]
			}
			calSink.Add(acc)
		}(uint64(w) + 1)
	}
	wg.Wait()
	return now().Sub(t0).Seconds()
}
