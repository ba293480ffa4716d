package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses; fields count from
	// the last ')'. utime = 1234 ticks, stime = 56 ticks.
	line := "4242 (briq (x) server) S 1 4242 4242 0 -1 4194560 1200 0 0 0 1234 56 0 0 20 0 9 0 100 1000000 2000 18446744073709551615\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 12900 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 briq S 1", "4242 (briq) S 1 2 3", "4242 (briq) S 1 4242 4242 0 -1 4194560 1200 0 0 0 x 56 0"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}

	// The live benchmark process itself parses.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS(self) = %g, %v", rss, err)
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tbriq-server\nVmPeak:\t  812345 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   50000 kB\nThreads:\t9\n"
	got, err := parseStatusKB([]byte(status), "VmHWM")
	if err != nil || got != 51234 {
		t.Errorf("VmHWM = %d, %v; want 51234", got, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing field accepted")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("unexpected unit accepted")
	}
}

func TestParseGCTrace(t *testing.T) {
	ev, ok := parseGCTrace("gc 5 @0.038s 1%: 0.072+6.3+0.051 ms clock, 0.14+0/0.098/0.084+0.10 ms cpu, 50->50->50 MB, 50 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok {
		t.Fatal("gctrace line not recognized")
	}
	if ev.n != 5 || ev.atS != 0.038 || ev.pauseMs < 0.1229 || ev.pauseMs > 0.1231 {
		t.Errorf("parsed %+v, want n=5 at=0.038 pause=0.123", ev)
	}
	if _, ok := parseGCTrace("gc 6 @1.5s 1%: 0.12+0.10+0.002 ms clock, 0.24+0/0.052/0.028+0.004 ms cpu, 50->50->0 MB, 100 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)"); !ok {
		t.Error("forced GC line not recognized")
	}
	for _, other := range []string{
		"briq-server: listening on 127.0.0.1:1234",
		"gc 7 @0.1s 1%: 0.1+0.2 ms clock, …",
		"scvg: 0 MB released",
		"",
	} {
		if _, ok := parseGCTrace(other); ok {
			t.Errorf("parsed %q as a GC line", other)
		}
	}
}
