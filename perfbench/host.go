package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host fingerprints the machine a result was measured on, so a later
// comparison can tell whether its wall-clock figures are comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint(commit string) host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks is the machine-wide CPU time from /proc/stat, in ticks: all
// of it, the idle part, and the part stolen by the hypervisor for other
// tenants.
type cpuTicks struct{ total, idle, steal int64 }

func readCPUTicks() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user .. steal; guest time is already inside user
			t.total += v
		}
		switch i {
		case 3, 4: // idle, iowait
			t.idle += v
		case 7:
			t.steal = v
		}
	}
	return t
}

// stolenShare is the share of the CPU time the machine's busy CPUs asked
// for between two readings that the hypervisor gave to other tenants
// instead. A CPU accrues steal only while it has work, so the share is
// the same whether one CPU or all of them were busy: a task that ran for
// wall time w would have taken w*(1-share) on a host of its own. Above a
// few percent, raw wall-clock figures include other tenants' load and
// compare poorly with quieter runs.
func stolenShare(a, b cpuTicks) float64 {
	busy := (b.total - b.idle) - (a.total - a.idle)
	if busy <= 0 {
		return 0
	}
	return math.Min(1, float64(b.steal-a.steal)/float64(busy))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS starts a new resident-set high-water mark (Linux 4.0+).
// Where the kernel refuses, peakRSS keeps reporting the process's
// lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark in bytes since the
// last resetPeakRSS, falling back to the lifetime peak from getrusage.
func peakRSS() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10 // Linux reports KiB
}
