package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rssEvery is how often the sampler reads the resident set size.
const rssEvery = 5 * time.Millisecond

// sampler records the process's resident set size every rssEvery over a
// measured window. A high percentile of these samples is a steadier
// measure of the memory a workload holds than the process-lifetime
// high-water mark, which hinges on where garbage collections happen to
// fall.
type sampler struct {
	paused  atomic.Bool // set while the harness itself runs
	mu      sync.Mutex
	samples []float64 // MB
	stop    chan struct{}
	done    chan struct{}
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.take()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.take()
			}
		}
	}()
	return s
}

func (s *sampler) take() {
	if s.paused.Load() {
		return
	}
	mb := readRSSMB()
	s.mu.Lock()
	s.samples = append(s.samples, mb)
	s.mu.Unlock()
}

// close takes a last sample, stops the polling goroutine, waits for it,
// and returns every sample taken.
func (s *sampler) close() []float64 {
	close(s.stop)
	<-s.done
	s.take()
	return s.samples
}

// readRSSMB returns the resident set size in MB (0 if unreadable).
func readRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / 1e6
}

// setRSS reports a window's RSS samples: their 90th percentile as the
// declared rss_p90_mb, and their maximum as peak_rss_mb.
func (o *runOut) setRSS(samples []float64) {
	s := sorted(samples)
	o.set("rss_p90_mb", s[nearestRank(90, len(s))-1], len(s))
	o.set("peak_rss_mb", s[len(s)-1], len(s))
}
