package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on shared virtual machines whose CPUs change speed
// by more than any useful bound: the same hashing loop ran ±13% apart a
// few seconds later on the reference box, and slow spells outlast a run.
// Two corrections bring every timed window back to a nominal host. First,
// the window is bracketed by host probes. A probe is a fixed amount of
// work independent of the program under test, with the same ingredients
// as the program's: hashing, memory-bound lookups, and round trips over a
// loopback connection. It runs while no load runs, and its CPU time
// measures how fast the CPUs are. A window's slowdown is the mean CPU
// time of its two bracketing probes over the nominal one, and the
// end-to-end timings are divided by it: they read as times on the
// reference box at its nominal speed. A change to the program moves them
// as much as it moves the raw times; a change of CPU speed moves the
// probes too and cancels out. Second, the time the hypervisor did not run
// the machine's CPUs at all (steal, in /proc/stat) is taken out of the
// window's wall-clock figures. The probes' own wall time is not used for
// this: it comes in spikes shorter than a window and added noise rather
// than removing it.

// The probe's work and its nominal cost: probeCPU is the median CPU time
// of 40 probes on the reference box (a 2-vCPU Intel Xeon virtual machine)
// with nothing else running, as "perfbench probe" prints it.
const (
	probeRounds  = 300
	probeHashes  = 48
	probeLoads   = 320
	probeTableMB = 16
	probePings   = 2000
	probeCPU     = 90 * time.Millisecond
)

var (
	probeOnce  sync.Once
	probeErr   error
	probeTable []uint32
	probeConn  net.Conn // a loopback connection whose far end echoes
)

// probeHost runs one probe and returns the CPU time it used: the hashing
// and lookups on GOMAXPROCS workers, then probePings one-byte round trips.
func probeHost() (time.Duration, error) {
	probeOnce.Do(probeInit)
	if probeErr != nil {
		return 0, probeErr
	}
	workers := runtime.GOMAXPROCS(0)
	cpu0 := selfCPU()
	var wg sync.WaitGroup
	sink := make([]uint32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink[w] = probeWork(uint32(w))
		}(w)
	}
	wg.Wait()
	runtime.KeepAlive(sink)
	var b [1]byte
	for i := 0; i < probePings; i++ {
		if _, err := probeConn.Write(b[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
		if _, err := io.ReadFull(probeConn, b[:]); err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
	}
	return selfCPU() - cpu0, nil
}

// probeInit fills the lookup table and opens the echo connection.
func probeInit() {
	probeTable = make([]uint32, probeTableMB<<20/4)
	x := uint32(2463534242)
	for i := range probeTable {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		probeTable[i] = x
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		probeErr = fmt.Errorf("host probe: %w", err)
		return
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(c, c)
	}()
	if probeConn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		probeErr = fmt.Errorf("host probe: %w", err)
	}
}

// probeWork is one worker's share: rounds of chained SHA-256 over a
// 1 KiB block, then a chain of dependent loads across the table, whose
// 16 MiB exceed the per-core caches.
func probeWork(seed uint32) uint32 {
	var block [1024]byte
	binary.LittleEndian.PutUint32(block[:], seed)
	mask := uint32(len(probeTable) - 1)
	i := seed * 0x9e3779b9
	for r := 0; r < probeRounds; r++ {
		for h := 0; h < probeHashes; h++ {
			sum := sha256.Sum256(block[:])
			copy(block[:32], sum[:])
		}
		i ^= binary.LittleEndian.Uint32(block[:])
		for l := 0; l < probeLoads; l++ {
			i = probeTable[i&mask] ^ uint32(l)
		}
	}
	return i
}

// stolenShare is the share of the CPU time the benchmark's processes
// wanted that the hypervisor gave to other machines instead: steal over
// steal plus the CPU time the processes used. Wall times are multiplied
// by one minus it, which removes the waits a stolen CPU adds.
func stolenShare(steal, used time.Duration) float64 {
	if steal <= 0 {
		return 0
	}
	return float64(steal) / float64(steal+used)
}

// slowdown is how much slower than nominal the CPUs ran around a window
// (or a set-up), from the probes before and after it.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(probeCPU)
}

// probeMain runs "perfbench probe": 40 probes on an otherwise idle host,
// printing their median CPU time, the value probeCPU records for the
// reference box.
func probeMain() int {
	var cpus []float64
	for i := 0; i < 40; i++ {
		cpu, err := probeHost()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		cpus = append(cpus, float64(cpu))
	}
	fmt.Printf("probe: median cpu %v over %d probes\n", time.Duration(median(cpus)), len(cpus))
	return 0
}
