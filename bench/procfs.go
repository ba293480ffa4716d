package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 for every architecture the kernel
// exposes to user space, whatever the kernel's internal HZ.
const clockTicks = 100

// parseProcStat returns the utime+stime of a /proc/<pid>/stat line. The
// command name is parenthesised and may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", b)
	}
	// After ")": state is field 3 of the full line, utime 14, stime 15.
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want ≥13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// parseStatusKB returns a "Key:  N kB" field of /proc/<pid>/status in KiB.
func parseStatusKB(b []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procCPU reads a live process's accumulated user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// procPeakRSS reads a live process's resident-set high-water mark (VmHWM) in
// MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcEvent is one line of GODEBUG=gctrace=1 output.
type gcEvent struct {
	n       int
	atS     float64 // seconds since the process started
	pauseMs float64 // stop-the-world wall time: sweep termination + mark termination
}

// parseGCTrace parses a gctrace line of the form
//
//	gc 5 @0.038s 1%: 0.072+6.3+0.051 ms clock, 0.14+0/0.098/0.084+0.10 ms cpu, 50->50->50 MB, …
//
// ok is false for any other line (the server's own log lines share stderr).
func parseGCTrace(line string) (gcEvent, bool) {
	f := strings.Fields(line)
	if len(f) < 7 || f[0] != "gc" || !strings.HasPrefix(f[2], "@") || f[5] != "ms" || f[6] != "clock," {
		return gcEvent{}, false
	}
	n, err := strconv.Atoi(f[1])
	if err != nil {
		return gcEvent{}, false
	}
	at, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(f[2], "@"), "s"), 64)
	if err != nil {
		return gcEvent{}, false
	}
	phases := strings.Split(f[4], "+")
	if len(phases) != 3 {
		return gcEvent{}, false
	}
	stw1, err1 := strconv.ParseFloat(phases[0], 64)
	stw2, err2 := strconv.ParseFloat(phases[2], 64)
	if err1 != nil || err2 != nil {
		return gcEvent{}, false
	}
	return gcEvent{n: n, atS: at, pauseMs: stw1 + stw2}, true
}
