package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sysSnap is the process-wide cost counters at one instant.
type sysSnap struct {
	at             time.Time
	cpu            time.Duration // user + system
	steal          time.Duration // machine-wide time the hypervisor gave to others
	wchar, syscw   uint64        // /proc/self/io: bytes and calls handed to write syscalls
	gcPause, alloc uint64
}

func takeSys() sysSnap {
	s := sysSnap{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.steal = stealTime()
	io := procFields("/proc/self/io")
	s.wchar, s.syscw = io["wchar"], io["syscw"]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPause, s.alloc = ms.PauseTotalNs, ms.TotalAlloc
	return s
}

// procFields parses a "name: value" file of /proc into numbers; values with
// a unit ("123 kB") keep the number only. A missing file yields an empty map.
func procFields(path string) map[string]uint64 {
	out := map[string]uint64{}
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(f[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}

// stealTime is the machine-wide steal time from /proc/stat (the eighth
// value of the "cpu" line, in clock ticks of 1/100 s), or 0 if unknown.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	return float64(procFields("/proc/self/status")["VmHWM"]) / 1024
}

// host labels the machine a result was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	FS         string `json:"tmp_fs"`
}

func hostLabel(dir string) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FS:         fsType(dir),
	}
}

// fsType is the filesystem type of the mount holding dir, from
// /proc/self/mountinfo, or "unknown".
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		// Fields: id parent major:minor root mountpoint opts [optional...] - fstype source superopts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), g[0]
		}
	}
	return typ
}

// probe is the device's fsync latency, measured by a fixed loop beside
// the run's data so results from different hosts or moments can be told
// apart.
type probe struct {
	Samples    int     `json:"samples"`
	P50us      float64 `json:"fsync_p50_us"`
	P99us      float64 `json:"fsync_p99_us"`
	Percentile float64 `json:"p99_percentile"`
}

// probeFsync appends a 4 KiB block and fsyncs it n times in dir.
func probeFsync(dir string, n int) (probe, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return probe{}, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var lat latency
	for range n {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return probe{}, fmt.Errorf("fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return probe{}, fmt.Errorf("fsync probe: %w", err)
		}
		lat.add(int64(time.Since(t0)))
	}
	p50, _, ok50 := lat.quantile(0.5)
	p99, used, ok99 := lat.quantile(0.99)
	if !ok50 || !ok99 {
		return probe{}, fmt.Errorf("fsync probe: %d samples are too few", n)
	}
	return probe{Samples: n, P50us: us(p50), P99us: us(p99), Percentile: used}, f.Close()
}
