package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// pct returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// sorting xs in place. It is 0 for an empty sample.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(float64(len(xs))*p/100+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is the interpolated median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so spreads computed here match the ones a
// Python reader of the same run set computes. xs must hold ≥ 2 values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// msOf converts nanosecond samples to milliseconds.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// usOf converts nanosecond samples to microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line[len("VmHWM:"):])
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(f[0]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	pause          time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		pause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}
