package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark shares runs at a speed that drifts by up to
// 2x over seconds to minutes: neighbours on the same physical cores
// contend for execution units, caches and memory. The same code timed
// a minute apart can differ by that much, far beyond any bound a
// regression gate can use. A probe therefore measures the host's speed
// while each iteration runs, and every end-to-end time is scaled to a
// reference host speed: seconds x (probeRef / kernel time)^probeExponent.
//
// The probe is a fixed kernel that depends on no repository code, so no
// change to the program can speed it up: a random read-modify-write
// walk over a 16 MiB table (memory-bound, like the simulator's data
// side) and a small byte-code interpreter over a 1 MiB table
// (dispatch-bound, like its fetch loop). A goroutine locked to its own
// thread runs the kernel every probeEvery and times it with the
// thread's CPU clock, so that time the kernel spends waiting for a CPU
// behind the workload does not count: only how fast the host executes
// it.

// probeRef is the kernel's thread CPU time, in seconds, on the
// reference host speed all times are scaled to: its median on the
// development host.
const probeRef = 1.0e-3

// probeExponent is how much more than the kernel the workloads slow
// down when the host does: the slope of log iteration time on log
// kernel time, 1.1-1.5 across the workloads on the development host.
const probeExponent = 1.4

// probeEvery is the pause between two kernel runs.
const probeEvery = 50 * time.Millisecond

const (
	probeBig   = 1 << 21 // words in the memory-bound table (16 MiB)
	probeSmall = 1 << 17 // words in the interpreter's table (1 MiB)
)

var (
	// The tables are written through once, so that no probe run pays
	// their page faults.
	probeBigTable   = filled(probeBig)
	probeSmallTable = filled(probeSmall)
	probeCode       = func() []byte {
		b := make([]byte, 1<<16)
		x := uint32(7)
		for i := range b {
			x = x*1664525 + 1013904223
			b[i] = byte(x >> 24)
		}
		return b
	}()
	probeSink uint64
)

func filled(n int) []uint64 {
	t := make([]uint64, n)
	for i := range t {
		t[i] = uint64(i)
	}
	return t
}

// probeKernel is one run of the fixed kernel.
func probeKernel() {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<14; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		probeBigTable[x&(probeBig-1)] += x
	}
	// Loads feed only the sum, never a register, so the interpreter
	// takes the same path on every run whatever the table holds.
	pc, sum := 0, uint64(0)
	r := [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 1<<15; i++ {
		op := probeCode[pc]
		a, b := op>>5, (op>>2)&7
		switch op & 7 {
		case 0:
			r[a] += r[b]
		case 1:
			r[a] ^= r[b] << 1
		case 2:
			sum += probeSmallTable[r[b]&(probeSmall-1)]
		case 3:
			if r[a]&1 == 0 {
				pc += int(op)
			}
		case 4:
			r[a] *= 3
		case 5:
			probeSmallTable[r[a]&(probeSmall-1)] += r[0]
		case 6:
			r[a] -= r[b]
		default:
			r[a] >>= 1
		}
		pc = (pc + 1) & (len(probeCode) - 1)
	}
	probeSink += x + sum
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3 /* CLOCK_THREAD_CPUTIME_ID */, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}

// speedProbe times the kernel in the background until stopped.
type speedProbe struct {
	stop  chan struct{}
	times chan []float64
}

func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), times: make(chan []float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var times []float64
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			c0 := threadCPU()
			probeKernel()
			times = append(times, threadCPU()-c0)
			select {
			case <-p.stop:
				p.times <- times
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe and returns the host's speed over its life as
// the factor that scales a measured time to the reference speed: below
// 1 when the host ran slow. The median of the kernel's times is taken
// after the first, which starts from caches the workload has not yet
// warmed, when others exist.
func (p *speedProbe) finish() float64 {
	close(p.stop)
	times := <-p.times
	if len(times) > 1 {
		times = times[1:]
	}
	sort.Float64s(times)
	return math.Pow(probeRef/times[len(times)/2], probeExponent)
}
