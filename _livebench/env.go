package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is the machine a result was measured on. A baseline is only
// comparable with a run that has the same CPU count and model.
type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() env {
	return env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procSample is the process's resource counters at one instant.
type procSample struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	var s procSample
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[2].Value.Float64()
	}
	return s
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) from the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the resident-set high-water mark since the last
// resetPeakRSS, read from VmHWM. With lifetime set (the reset failed) or
// without /proc it falls back to getrusage's process-lifetime peak.
func peakRSSMiB(lifetime bool) float64 {
	if !lifetime {
		if b, err := os.ReadFile("/proc/self/status"); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
