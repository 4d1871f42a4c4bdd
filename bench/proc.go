package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// rusage is the part of getrusage(RUSAGE_SELF) that explains a slow run
// from outside the program: system time and page faults are the sandbox's
// cost of first-touching memory, not the simulator's.
type rusage struct {
	user, sys float64 // seconds
	minflt    int64
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return rusage{user: sec(ru.Utime), sys: sec(ru.Stime), minflt: int64(ru.Minflt)}
}

// rssMiB is the process's resident set right now.
func rssMiB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSKiB is the process's resident-set high-water mark (VmHWM).
func peakRSSKiB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kib
		}
	}
	return 0
}
