package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphm/internal/slo"
)

// quantile returns the q-quantile of xs by the nearest-rank rule the daemon's
// SLO windows use (slo.Percentile). xs is not modified; empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return slo.Percentile(s, q)
}

// median is the middle value of xs (the mean of the middle two for an even
// count), used to fold the repetitions of one run into one figure.
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

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSample is a point-in-time reading of the process counters the
// per-layer metrics difference across one repetition.
type procSample struct {
	cpu time.Duration // user + system CPU time (getrusage)
	rt  []metrics.Sample
	// stealTicks and totalTicks are the machine's CPU time stolen by the
	// hypervisor and its total CPU time (/proc/stat), in clock ticks.
	stealTicks, totalTicks uint64
}

var runtimeMetricNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	s := procSample{
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rt:  make([]metrics.Sample, len(runtimeMetricNames)),
	}
	for i, name := range runtimeMetricNames {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	s.stealTicks, s.totalTicks = cpuTicks()
	return s
}

// cpuTicks reads the steal and total columns of the aggregate cpu line of
// /proc/stat (user nice system idle iowait irq softirq steal). Both are 0
// where the file cannot be read.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// procDelta is what the process spent between two samples.
type procDelta struct {
	cpuS         float64
	rtTotalCPU   float64
	rtIdleCPU    float64
	rtGCCPU      float64
	mutexWaitS   float64
	allocBytes   float64
	schedLatP99S float64
	stealFrac    float64 // share of the machine's CPU time the hypervisor took
}

func diffProc(a, b procSample) procDelta {
	f := func(i int) float64 {
		if b.rt[i].Value.Kind() == metrics.KindFloat64 {
			return b.rt[i].Value.Float64() - a.rt[i].Value.Float64()
		}
		if b.rt[i].Value.Kind() == metrics.KindUint64 {
			return float64(b.rt[i].Value.Uint64() - a.rt[i].Value.Uint64())
		}
		return 0
	}
	d := procDelta{
		cpuS:       (b.cpu - a.cpu).Seconds(),
		rtTotalCPU: f(0),
		rtIdleCPU:  f(1),
		rtGCCPU:    f(2),
		mutexWaitS: f(3),
		allocBytes: f(4),
		stealFrac:  ratio(float64(b.stealTicks-a.stealTicks), float64(b.totalTicks-a.totalTicks)),
	}
	if b.rt[5].Value.Kind() == metrics.KindFloat64Histogram {
		d.schedLatP99S = histQuantileDelta(a.rt[5].Value.Float64Histogram(), b.rt[5].Value.Float64Histogram(), 0.99)
	}
	return d
}

// histQuantileDelta returns the upper bound of the bucket holding the
// q-quantile of the observations added between two readings of a
// cumulative runtime histogram.
func histQuantileDelta(a, b *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i := range b.Counts {
		counts[i] = b.Counts[i]
		if i < len(a.Counts) {
			counts[i] -= a.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM) to
// the current RSS, so each repetition reports its own peak.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
