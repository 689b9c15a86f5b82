package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of vs (linear interpolation between
// order statistics); vs is sorted in place. Empty input gives 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo >= len(vs)-1 {
		return vs[len(vs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || math.IsInf(vs[lo+1], 1) {
		return vs[lo+int(math.Ceil(frac))]
	}
	return vs[lo] + frac*(vs[lo+1]-vs[lo])
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// median returns the median of vs without reordering the caller's slice.
func median(vs []float64) float64 {
	return quantile(append([]float64(nil), vs...), 0.5)
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSnap is a snapshot of the process counters a measured interval
// is judged by.
type procSnap struct {
	wall     time.Time
	cpu      float64
	allocs   uint64
	gcCPU    float64
	totalCPU float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapProc() procSnap {
	metrics.Read(procSamples)
	s := procSnap{wall: time.Now(), cpu: cpuSeconds()}
	if v := procSamples[0].Value; v.Kind() == metrics.KindUint64 {
		s.allocs = v.Uint64()
	}
	if v := procSamples[1].Value; v.Kind() == metrics.KindFloat64 {
		s.gcCPU = v.Float64()
	}
	if v := procSamples[2].Value; v.Kind() == metrics.KindFloat64 {
		s.totalCPU = v.Float64()
	}
	return s
}

// interval is the difference between two process snapshots.
type interval struct {
	wallSec, cpuSec float64
	allocs          float64
	gcCPUFrac       float64
}

func between(a, b procSnap) interval {
	iv := interval{
		wallSec: b.wall.Sub(a.wall).Seconds(),
		cpuSec:  b.cpu - a.cpu,
		allocs:  float64(b.allocs - a.allocs),
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		iv.gcCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	return iv
}

// perCore divides a rate by the cores the process used over iv.
func (iv interval) perCore(rate float64) float64 {
	if iv.cpuSec <= 0 || iv.wallSec <= 0 {
		return 0
	}
	return rate / (iv.cpuSec / iv.wallSec)
}

// heapSampler tracks the peak live heap (bytes marked live by the last
// GC) between start and stop. Only its goroutine writes peak; stopMiB
// reads it after that goroutine has ended.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// stopMiB stops the sampler and returns the peak in MiB. A sample is the
// heap marked live by the last collection, which lags a growing heap by
// up to a cycle; one forced collection at the end measures the heap the
// interval ends with.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	peak := h.peak
	if s[0].Value.Kind() == metrics.KindUint64 {
		peak = max(peak, s[0].Value.Uint64())
	}
	return float64(peak) / (1 << 20)
}

// rcvbufErrors reads the kernel's machine-wide UDP RcvbufErrors counter
// (-1 when unavailable). It is a diagnostic only: other processes on the
// machine move it too.
func rcvbufErrors() int64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var header []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(fields) {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				if err == nil {
					return v
				}
			}
		}
		return -1
	}
	return -1
}

// finite maps NaN and infinities to 0 so every reported value is a JSON
// number.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
