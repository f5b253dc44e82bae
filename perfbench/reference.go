package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was written on runs the same code up to twice as
// slowly for seconds to minutes at a time, and a run's median round moves
// with it. The benchmark therefore times a fixed reference kernel of its own
// between rounds (or cycles) and reports throughput per reference-second:
// CPU time divided by what the reference kernel took at the same moments.
// A slower host slows both; a faster program speeds up only the rounds.
//
// The kernel has two halves of about equal time. One is eight independent
// multiply and xorshift chains (the core's execution units) and random
// read-modify-writes over a 256 KiB table (its private caches); the other
// is a JSON round trip of a fixed document (a large body of branchy code,
// maps and allocation, as the simulator has). Sampled beside the
// simulator, each half follows its speed in part and their sum best. Divided by the kernel,
// the spread of median round times over 30 s windows fell from about 0.12
// to 0.02–0.04 on hammer's double-sided attack (README.md).

const (
	// refChains is how many steps the kernel's chains take.
	refChains = 600_000
	// refTableWords sizes the kernel's table: 64 Ki words, 256 KiB.
	refTableWords = 1 << 16
	// refUpdates is how many random updates the kernel makes to its table.
	refUpdates = 250_000
	// refDocRecords is how many records the kernel's JSON document holds.
	refDocRecords = 300
	// refPerRound is how many kernel samples follow each round or cycle.
	refPerRound = 3
	// refRunsPerRefSecond defines the unit: one reference-second is the CPU
	// time of this many kernel runs, about one second on the host the
	// benchmark was written on.
	refRunsPerRefSecond = 100
	// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID: the calling
	// thread's CPU time to the nanosecond (getrusage's per-thread times
	// move in scheduler ticks).
	clockThreadCPU = 3
)

var refTable = make([]uint32, refTableWords)

// refRecord is one record of the kernel's JSON document.
type refRecord struct {
	Name  string
	Vals  []int
	Inner map[string]float64
}

// refDoc is the kernel's JSON document, the same in every run.
var refDoc = func() []refRecord {
	doc := make([]refRecord, refDocRecords)
	for i := range doc {
		r := refRecord{Name: fmt.Sprintf("record-%d", i), Inner: map[string]float64{}}
		for j := 0; j < 10; j++ {
			r.Vals = append(r.Vals, i*j)
			r.Inner[fmt.Sprintf("key-%d", j)] = float64(i) / float64(j+1)
		}
		doc[i] = r
	}
	return doc
}()

// refKernel runs the reference kernel once. Its result is a checksum that
// keeps the compiler from dropping the work.
func refKernel() uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < refChains; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e<<13 ^ a
		f ^= f>>7 ^ b
		g ^= g<<17 ^ c
		h ^= h>>9 ^ d
	}
	x := uint64(12345)
	const mask = refTableWords - 1
	t := refTable
	for i := 0; i < refUpdates; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&mask]++
		t[(x>>16)&mask] += 3
		if t[(x>>32)&mask]&1 == 0 {
			t[(x>>48)&mask] ^= uint32(x)
		}
	}
	raw, err := json.Marshal(refDoc)
	var back []refRecord
	if err == nil {
		err = json.Unmarshal(raw, &back)
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: reference kernel: %v", err))
	}
	return a + b + c + d + e + f + g + h + uint64(t[x&mask]) + uint64(len(raw)+len(back))
}

// refSink receives the kernel's checksums.
var refSink uint64

// refSamples runs the kernel n times and returns the CPU time of each run
// in milliseconds. The calling goroutine stays on its thread meanwhile and
// only that thread's CPU time is read, so the garbage collector or the
// service's goroutines working on other threads do not count.
func refSamples(n int) []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := make([]float64, n)
	for i := range out {
		t := threadCPU()
		refSink += refKernel()
		out[i] = ms(threadCPU() - t)
	}
	return out
}

// threadCPU is the calling thread's CPU time so far, user and system.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// perRefSecond turns work done in a median CPU time (ms) into work per
// reference-second, given the reference kernel's samples (ms).
func perRefSecond(work, cpuMS float64, refMS []float64) float64 {
	return ratio(work*refRunsPerRefSecond*median(refMS), cpuMS)
}
