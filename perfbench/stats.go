package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the p-th percentile of samples by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the high-water resident set (VmHWM) of pid, or of this
// process for pid 0, in MiB; 0 when it cannot be read, which emit rejects.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed heap to the OS and restarts this process's
// VmHWM, so peak_rss_mb covers the measured window rather than set-up.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Best effort: where the kernel refuses the reset, the peak also
	// covers set-up.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
