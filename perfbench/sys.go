package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/memstats"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the heap still in use after a forced collection. The
// caller keeps the measured structures reachable across the call with
// runtime.KeepAlive; without that the collector may already have freed
// them, which is how an end-of-run reading can under-report.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	kb, ok := memstats.PeakRSSKB()
	if !ok {
		return 0, fmt.Errorf("VmHWM not readable from /proc/self/status")
	}
	return float64(kb) / 1024, nil
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}
