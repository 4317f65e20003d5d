package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// hostRef times a fixed pure-Go loop — sorting and hashing a fixed
// pseudo-random array, about a millisecond of work — and returns the median
// of 7 timings in microseconds. It runs before every round and gates
// nothing: on a shared host whose speed drifts, it tells a slower host apart
// from a slower program when run-to-run spread is judged.
func hostRef() float64 {
	const n = 1 << 14
	src := make([]uint64, n)
	x := uint64(88172645463325252)
	for i := range src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = x
	}
	buf := make([]uint64, n)
	seen := make(map[uint64]int, n)
	times := make([]float64, 7)
	for r := range times {
		start := time.Now()
		copy(buf, src)
		slices.Sort(buf)
		clear(seen)
		for i, v := range buf {
			seen[v>>8] = i
		}
		times[r] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	slices.Sort(times)
	return times[len(times)/2]
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
