package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
)

// host is the fingerprint stamped on every result: numbers from two hosts
// with different fingerprints are not comparable.
type host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu,omitempty"`
}

func fingerprint() host {
	return host{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the CPU model from /proc/cpuinfo; it is empty where that
// file is not readable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

const (
	rtLiveHeap  = "/gc/heap/live:bytes"
	rtGCCycles  = "/gc/cycles/total:gc-cycles"
	rtGCPauses  = "/sched/pauses/total/gc:seconds"
	rtOldPauses = "/gc/pauses:seconds"
	rtSchedLat  = "/sched/latencies:seconds"
)

// allocs reads the process-wide count of heap allocations so far. It
// uses ReadMemStats, which flushes every P's allocation cache, so the
// count is exact; the runtime/metrics counter lags by up to a span per P.
// The brief stop-the-world is why it is read only between runs.
func allocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapSampler keeps the peak live heap: the largest heap a garbage
// collection marked live while it ran. A finalizer that re-arms itself
// runs once after every collection and reads that figure, so no goroutine
// polls beside the workers.
type heapSampler struct {
	mu      sync.Mutex
	stopped bool
	peak    uint64
}

// gcTick is the sentinel whose finalizer runs after each collection. It
// holds a pointer, so the tiny allocator never batches it with other
// objects.
type gcTick struct{ h *heapSampler }

func startHeap() *heapSampler {
	h := &heapSampler{}
	h.read()
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&gcTick{h}, func(t *gcTick) {
		if t.h.read() {
			t.h.arm()
		}
	})
}

// read records the live heap of the last collection and reports whether
// sampling goes on.
func (h *heapSampler) read() bool {
	s := []metrics.Sample{{Name: rtLiveHeap}}
	metrics.Read(s)
	h.mu.Lock()
	defer h.mu.Unlock()
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return !h.stopped
}

// stop ends the sampling and returns the peak in MB. It may be called
// again, as a deferred stop on an error path.
func (h *heapSampler) stop() float64 {
	h.read()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return float64(h.peak) / 1e6
}

// rtSnapshot is the runtime state whose change over a traced run is
// reported per layer: GC cycles, GC pause time and scheduling latency.
type rtSnapshot struct {
	samples []metrics.Sample
}

func readRuntime() rtSnapshot {
	pauses := rtOldPauses // the name before Go 1.22
	for _, d := range metrics.All() {
		if d.Name == rtGCPauses {
			pauses = rtGCPauses
		}
	}
	s := []metrics.Sample{{Name: rtGCCycles}, {Name: pauses}, {Name: rtSchedLat}}
	metrics.Read(s)
	return rtSnapshot{s}
}

// since reports GC cycles, total GC pause seconds and the p99 scheduling
// latency in microseconds between then and now.
func (now rtSnapshot) since(then rtSnapshot) (cycles, pauseS, schedP99us float64) {
	cycles = float64(now.samples[0].Value.Uint64() - then.samples[0].Value.Uint64())
	pauseS = histDelta(then.samples[1], now.samples[1], func(buckets []float64, counts []uint64) float64 {
		sum := 0.0
		for i, c := range counts {
			sum += float64(c) * mid(buckets, i)
		}
		return sum
	})
	schedP99us = 1e6 * histDelta(then.samples[2], now.samples[2], func(buckets []float64, counts []uint64) float64 {
		total := uint64(0)
		for _, c := range counts {
			total += c
		}
		rank := uint64(math.Ceil(0.99 * float64(total)))
		seen := uint64(0)
		for i, c := range counts {
			seen += c
			if c > 0 && seen >= rank {
				return mid(buckets, i)
			}
		}
		return 0
	})
	return cycles, pauseS, schedP99us
}

// histDelta applies f to the bucket counts added between two readings of
// one runtime histogram.
func histDelta(then, now metrics.Sample, f func(buckets []float64, counts []uint64) float64) float64 {
	if now.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	a, b := then.Value.Float64Histogram(), now.Value.Float64Histogram()
	counts := make([]uint64, len(b.Counts))
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
	}
	return f(b.Buckets, counts)
}

// mid is a runtime histogram bucket's midpoint, or its finite edge when
// the other edge is infinite.
func mid(buckets []float64, i int) float64 {
	lo, hi := buckets[i], buckets[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}
