package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Go runtime metrics the benchmark reads. All are cumulative except
// heapObjects, a gauge.
const (
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mSchedLat    = "/sched/latencies:seconds"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

// hostSnap is one reading of the process's host-side counters.
type hostSnap struct {
	at          time.Time
	cpu         time.Duration // user+sys CPU of the whole process
	allocBytes  uint64
	schedEvents uint64  // goroutine schedulings sampled by the runtime
	gcCPU       float64 // seconds, as estimated by the runtime
}

// readHost takes a hostSnap.
func readHost() hostSnap {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mSchedLat}, {Name: mGCCPU}}
	metrics.Read(s)
	var sched uint64
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range s[1].Value.Float64Histogram().Counts {
			sched += c
		}
	}
	return hostSnap{
		at:          time.Now(),
		cpu:         processCPU(),
		allocBytes:  uint64Value(s[0]),
		schedEvents: sched,
		gcCPU:       float64Value(s[2]),
	}
}

func uint64Value(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func float64Value(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostDelta is the host cost of an interval between two snapshots.
type hostDelta struct {
	wall, cpu   time.Duration
	allocBytes  uint64
	schedEvents uint64
	gcCPU       float64
}

func (a hostSnap) to(b hostSnap) hostDelta {
	return hostDelta{
		wall:        b.at.Sub(a.at),
		cpu:         b.cpu - a.cpu,
		allocBytes:  b.allocBytes - a.allocBytes,
		schedEvents: b.schedEvents - a.schedEvents,
		gcCPU:       b.gcCPU - a.gcCPU,
	}
}

// refRoundTrips sizes the reference task: about 1 ms on the reference host.
const refRoundTrips = 2000

// refTask runs the reference task and returns its host time. The sweep runs
// it right before every cell and divides the cell's time by it, which
// cancels the drift in host speed that a shared machine shows over minutes.
// The task is fixed code outside the simulator: a goroutine ping-pong over
// unbuffered channels, the runtime park/ready path the engine's thread
// hand-off also takes, with no allocation, so its time follows the host
// and not the simulator's heap.
func refTask() time.Duration {
	start := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < refRoundTrips; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong // closed once the partner has finished
	return time.Since(start)
}

// heapSampler tracks the peak of the live-heap gauge, sampled every 10 ms
// on its own goroutine until close.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	return uint64Value(s[0])
}

// startHeapSampler starts sampling; stop it with close.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe(heapObjects())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset restarts the peak at the current heap size and returns the peak
// observed since the previous reset.
func (h *heapSampler) reset() uint64 {
	now := heapObjects()
	prev := h.peak.Swap(now)
	if now > prev {
		return now
	}
	return prev
}

// close stops the sampling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
