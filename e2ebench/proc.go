package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports; reading it needs sysconf, which
// needs cgo.
const clockTicks = 100

// cpuMillis returns the process's utime+stime in milliseconds, from
// /proc/<pid>/stat (all threads, including exited ones).
func cpuMillis(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status %d: no VmHWM", pid)
}
