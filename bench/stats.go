package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
)

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a tail percentile before it
// is reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// tail returns the p-quantile of xs by nearest rank, and whether at least
// minBeyond samples lie strictly above that rank. xs is not modified.
func tail(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// tailOrZero is tail for metric output: a percentile without enough
// samples beyond it reads 0.
func tailOrZero(xs []float64, p float64) float64 {
	v, ok := tail(xs, p)
	if !ok {
		return 0
	}
	return v
}

// ratio divides, reading 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rtSample is one reading of the runtime counters a round reports as
// deltas.
type rtSample struct {
	allocObjects, allocBytes, gcCycles, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the runtime/metrics counters in rtNames.
func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rtSample{allocObjects: v[0], allocBytes: v[1], gcCycles: v[2], gcCPU: v[3], totalCPU: v[4]}
}

// sub returns the counter deltas from an earlier reading.
func (s rtSample) sub(o rtSample) rtSample {
	return rtSample{
		allocObjects: s.allocObjects - o.allocObjects,
		allocBytes:   s.allocBytes - o.allocBytes,
		gcCycles:     s.gcCycles - o.gcCycles,
		gcCPU:        s.gcCPU - o.gcCPU,
		totalCPU:     s.totalCPU - o.totalCPU,
	}
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) counter for this
// process, so the next peakRSSMB reading covers only what follows. It
// reports false where the kernel refuses, and peakRSSMB then reads the
// process-lifetime peak.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the peak resident set size, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
