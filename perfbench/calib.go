package main

import (
	"crypto/sha256"
	"math/rand/v2"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed adjustment. On a shared host the same code runs up to a
// quarter faster or slower from one minute to the next, and CPU time
// drifts with wall time, so raw times of identical runs spread wider than
// any useful regression bound. The harness therefore times a fixed
// reference workload next to the program's work and reports the gated
// times scaled to a nominal host, one on which the reference takes
// refNominal: adjusted = raw * refNominal / reference time. Each timed
// unit (a synthesis, or a slice of serve-mix's load) is bracketed by two
// references and scaled by their mean, since the host's speed changes
// within seconds. The reference depends on the standard library alone,
// never on the program under test, so a slower program still reads
// slower; reports keep the raw figures beside the adjusted ones.

// refNominal is the reference's wall time on the nominal host (about its
// median on the 2-vCPU Xeon host the benchmark was tuned on).
const refNominal = 125 * time.Millisecond

// refRounds is how many reference rounds each goroutine runs.
const refRounds = 16

var refSink atomic.Int64

// refRound is one round of the reference workload, in the engine's style:
// string-keyed map inserts, allocation, sorting, and hashing, all fixed
// by the round number.
func refRound(round uint64) {
	r := rand.New(rand.NewPCG(round, 0x9e3779b97f4a7c15))
	m := make(map[string]int)
	for i := 0; i < 1<<13; i++ {
		m[strconv.Itoa(r.IntN(1<<30))] = i
	}
	xs := make([]int, 1<<15)
	for i := range xs {
		xs[i] = r.Int()
	}
	sort.Ints(xs)
	buf := make([]byte, 1<<16)
	for i := range buf {
		buf[i] = byte(xs[i%len(xs)])
	}
	sum := sha256.Sum256(buf)
	refSink.Add(int64(len(m)) + int64(xs[0]&0xff) + int64(sum[0]))
}

// calibrate runs the reference on nproc goroutines, as the workloads use
// every CPU, and returns its wall time. The RSS sampler, if any, skips
// the reference's allocations.
func calibrate(rss *sampler) time.Duration {
	if rss != nil {
		rss.paused.Store(true)
		defer rss.paused.Store(false)
	}
	// Start every reference from a collected heap, so the garbage the
	// program left behind is not collected on the reference's time.
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); i < refRounds; i++ {
				refRound(g*refRounds + i)
			}
		}(uint64(g))
	}
	wg.Wait()
	return time.Since(t0)
}

// hostFactor scales a time measured between two references that took
// before and after to the nominal host.
func hostFactor(before, after time.Duration) float64 {
	return 2 * float64(refNominal) / float64(before+after)
}
