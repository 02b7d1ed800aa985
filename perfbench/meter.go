package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stolenMax is the share of the machine's CPU time a hypervisor may steal
// during a window before the window's timings are set aside: on a shared
// host, a stolen CPU stalls the server and the client alike, and the
// latency it adds says nothing about the code being measured.
const stolenMax = 0.02

// meterEvery is the width of one metered window.
const meterEvery = 500 * time.Millisecond

// sample is one reading of the machine's CPU accounting and the server's
// CPU time.
type sample struct {
	at           time.Time
	steal, total int64
	cpu          time.Duration
}

// window is the span between two samples.
type window struct {
	from, to time.Time
	stolen   float64
	cpu      time.Duration
}

func (s *server) sample() (sample, error) {
	steal, total := stealTicks()
	cpu, err := s.cpu()
	return sample{at: time.Now(), steal: steal, total: total, cpu: cpu}, err
}

// metered runs f while sampling every meterEvery and returns the windows
// between the samples. It fails if the server's CPU time could not be read.
func (s *server) metered(f func()) ([]window, error) {
	var samples []sample
	var firstErr error
	take := func() {
		smp, err := s.sample()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		samples = append(samples, smp)
	}
	take()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(meterEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				take()
			case <-stop:
				return
			}
		}
	}()
	f()
	close(stop)
	<-done
	take()
	if firstErr != nil {
		return nil, fmt.Errorf("meter server CPU: %w", firstErr)
	}
	ws := make([]window, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		ws = append(ws, window{
			from: a.at, to: b.at,
			stolen: ratio(float64(b.steal-a.steal), float64(b.total-a.total)),
			cpu:    b.cpu - a.cpu,
		})
	}
	return ws, nil
}

// quiet keeps the windows the hypervisor left alone, and at least the
// quieter half of all windows, so a phase always reports on most of what
// it measured even when the machine was contended throughout.
func quiet(ws []window) []window {
	byStolen := append([]window(nil), ws...)
	sort.SliceStable(byStolen, func(i, j int) bool { return byStolen[i].stolen < byStolen[j].stolen })
	n := (len(ws) + 1) / 2
	for n < len(byStolen) && byStolen[n].stolen <= stolenMax {
		n++
	}
	return byStolen[:n]
}

// inWindows reports, for each arrival of a phase that started at start,
// whether it came due inside one of ws.
func inWindows(start time.Time, at []time.Duration, ws []window) []bool {
	keep := make([]bool, len(at))
	for i, d := range at {
		t := start.Add(d)
		for _, w := range ws {
			if !t.Before(w.from) && t.Before(w.to) {
				keep[i] = true
				break
			}
		}
	}
	return keep
}

// stealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat.
func stealTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
