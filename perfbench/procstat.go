package main

import (
	"fmt"
	"net"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time process pid has used,
// read from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis start at field 3 (state). utime and stime are
	// fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 > len(s) {
		return 0, fmt.Errorf("procstat: malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("procstat: short /proc/%d/stat", pid)
	}
	var ticks uint64
	for _, field := range f[11:13] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procstat: /proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// hostSteal returns the time the hypervisor has kept the machine's CPUs
// from running while they had work, summed over CPUs, from the steal
// field of /proc/stat.
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("procstat: malformed /proc/stat")
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: /proc/stat steal: %w", err)
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSS returns the peak resident set size (VmHWM) of process pid
// in bytes, read from /proc/<pid>/status.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procstat: VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("procstat: no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the CPU time this process has used, from getrusage.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCycles returns the number of completed GC cycles of this process.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// countingConn counts the bytes crossing a connection in both
// directions into a shared counter.
type countingConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(uint64(n))
	return n, err
}
