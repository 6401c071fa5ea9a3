package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// segments is the number of equal consecutive slices a timed phase is
// cut into. Throughput and CPU cost are reported as the median over
// them, so a burst of host interference costs one segment, not the run.
const segments = 9

// phase is what one timed phase measured, as the clock read it.
type phase struct {
	ops     int
	failed  int
	wall    time.Duration
	lat     []time.Duration // per op, by op index
	segWall [segments]time.Duration
	segCPU  [segments]time.Duration
	mallocs uint64
}

type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuTime()} }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundOps trims n down to a whole number of segments (at least one op
// each), so every segment holds the same work.
func roundOps(n int) int {
	if n < segments {
		return segments
	}
	return n / segments * segments
}

// runPhase drives ops 0..n-1 through exec from `clients` closed-loop
// goroutines: each takes the next unclaimed op only after its previous
// one completed. n must be a multiple of segments. The goroutine that
// claims the first op of a segment stamps the boundary, so segments are
// consecutive ranges of one shared op order.
func runPhase(n, clients int, exec func(client, i int) bool) phase {
	segLen := n / segments
	p := phase{ops: n, lat: make([]time.Duration, n)}
	var (
		marks  [segments + 1]stamp
		next   atomic.Int64
		failed atomic.Int64
		wg     sync.WaitGroup
		m0, m1 runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	marks[0] = now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if i > 0 && i%segLen == 0 {
					marks[i/segLen] = now()
				}
				t0 := time.Now()
				if !exec(c, i) {
					failed.Add(1)
				}
				p.lat[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	marks[segments] = now()
	runtime.ReadMemStats(&m1)
	for s := 0; s < segments; s++ {
		p.segWall[s] = marks[s+1].wall.Sub(marks[s].wall)
		p.segCPU[s] = marks[s+1].cpu - marks[s].cpu
	}
	p.wall = marks[segments].wall.Sub(marks[0].wall)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.failed = int(failed.Load())
	return p
}

// segOpsPerSec is each segment's ops completed per second.
func (p phase) segOpsPerSec() []float64 {
	per := float64(p.ops / segments)
	v := make([]float64, segments)
	for s := range v {
		v[s] = per / p.segWall[s].Seconds()
	}
	return v
}

// opsPerSec is the median over segments of ops completed per second.
func (p phase) opsPerSec() float64 { return median(p.segOpsPerSec()) }

// cpuMsPerOp is the median over segments of process CPU milliseconds
// per op.
func (p phase) cpuMsPerOp() float64 {
	per := float64(p.ops / segments)
	v := make([]float64, segments)
	for s := range v {
		v[s] = ms(p.segCPU[s]) / per
	}
	return median(v)
}

func (p phase) allocsPerOp() float64 { return float64(p.mallocs) / float64(p.ops) }

// latencyMs is the q-quantile (0..1) of client-side op latency, pooled
// over the whole phase.
func (p phase) latencyMs(q float64) float64 {
	v := make([]float64, len(p.lat))
	for i, d := range p.lat {
		v[i] = ms(d)
	}
	return quantile(v, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status: %v", sc.Err())
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: steal ticks
// and total ticks since boot.
func cpuTicks() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat head %q", line)
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so stop at steal.
	for i, s := range f[1:9] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat field %q: %w", s, err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// exclusiveQuantile is the q-quantile by the rule of Python's
// statistics.quantiles(method="exclusive"), which the acceptance driver
// uses for spreads: position q·(n+1) in the sorted data, interpolated
// (extrapolated at the ends, as Python does). v must have 2 values or
// more.
func exclusiveQuantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	frac := pos - float64(j)
	return s[j-1]*(1-frac) + s[j]*frac
}
