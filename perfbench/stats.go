package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the peak resident set (VmHWM) of a process from
// /proc; pid "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// setupReps is how many times an untraced run sets up; setup_s is
// their median. A traced run sets up once.
const setupReps = 3

func repsFor(cfg config) int {
	if cfg.trace {
		return 1
	}
	return setupReps
}

// medianSetup runs a workload's set-up reps times and returns the last
// rep's result with every rep's duration in seconds. Before each later
// rep the previous result is released with drop, the reference to it is
// cleared and the heap is returned to the OS, so only one set-up is
// reachable at a time and the peak resident set is that of a single
// set-up. The first rep is timed from process start, so it includes the
// runtime's own start-up.
func medianSetup[T any](reps int, setup func() (T, error), drop func(T)) (T, []float64, error) {
	var zero, last T
	var times []float64
	for r := 0; r < reps; r++ {
		start := processStart
		if r > 0 {
			drop(last)
			last = zero
			debug.FreeOSMemory()
			start = time.Now()
		}
		v, err := setup()
		if err != nil {
			return zero, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, times, nil
}
