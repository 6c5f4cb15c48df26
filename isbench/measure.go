package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime reports the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch accumulates wall and CPU time over the timed parts of a
// phase, so untimed work between rounds (checks, the overflow probe)
// is left out of both.
type stopwatch struct {
	wall, cpu time.Duration
	startW    time.Time
	startC    time.Duration
}

func (s *stopwatch) start() { s.startW, s.startC = time.Now(), cpuTime() }

// stop ends a timed lap and returns its wall time.
func (s *stopwatch) stop() time.Duration {
	w := time.Since(s.startW)
	s.wall += w
	s.cpu += cpuTime() - s.startC
	return w
}

// heapSampler records the peak live heap (the heap left after the
// latest GC) while a run is in progress, lap by lap.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapSampler) observe(v uint64) {
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.observe(readLiveHeap())
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// begin starts a lap: it collects the previous lap's garbage, so a
// lap's live heap is its own and not what the lap before left behind.
func (h *heapSampler) begin() {
	runtime.GC()
	h.peak.Store(0)
	h.observe(readLiveHeap())
}

// lap returns the peak live heap in MiB since begin.
func (h *heapSampler) lap() float64 {
	h.observe(readLiveHeap())
	return float64(h.peak.Load()) / (1 << 20)
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// runtimeCounters snapshots the Go runtime's allocation and GC totals.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	gcCPU                float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[2].Value.Float64()
	}
	return c
}

// runtimeMetrics reports the runtime layer's work between two
// snapshots.
func runtimeMetrics(a, b runtimeCounters, m map[string]metric) {
	m["runtime.alloc_mib"] = metric{float64(b.allocBytes-a.allocBytes) / (1 << 20), "MiB"}
	m["runtime.gc_cycles"] = metric{float64(b.gcCycles - a.gcCycles), "count"}
	m["runtime.gc_cpu_s"] = metric{b.gcCPU - a.gcCPU, "s"}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durations converts nanosecond samples to float64 in the given unit.
func durations(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

// sourceID identifies the code under test. The benchmark runs from
// checkouts that are not git repositories, so it hashes the module's
// Go sources and go.mod instead of asking git: equal IDs mean equal
// code.
func sourceID() string {
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("isbench"); err == nil {
			root = "."
		}
	}
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "isbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write(b)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
