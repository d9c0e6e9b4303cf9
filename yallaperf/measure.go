package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one named, unit-carrying number of a run.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what one workload run produces: the op counts behind the
// error rate, the end-to-end metrics, and (traced runs only) the
// per-layer metrics plus notes on anything not measurable from outside.
type report struct {
	attempted, failed int
	e2e               []metric
	layers            []metric
	// shown are printed in the table only: values a reader wants next
	// to the end-to-end rows that are not regression metrics.
	shown []metric
	notes []string
	// failures keeps the first few failure messages for stderr.
	failures []string
}

// samples collects the timed phase of a run. Safe for concurrent use.
type samples struct {
	mu        sync.Mutex
	ops       []float64 // wall ms per successful op
	virtual   []float64 // simulated build cost per successful op, ms
	attempted int
	failed    int
	failures  []string
}

const maxFailureLines = 8

// op records one completed timed op.
func (s *samples) op(wall time.Duration, virtualMs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	s.ops = append(s.ops, ms(wall))
	s.virtual = append(s.virtual, virtualMs)
}

// fail records one failed op (an error, a wrong output or an edit that
// rebuilt nothing).
func (s *samples) fail(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	s.failed++
	if len(s.failures) < maxFailureLines {
		s.failures = append(s.failures, msg)
	}
}

// check records one post-run output check: it counts as attempted, and
// as failed when msg is non-empty.
func (s *samples) check(msg string) {
	if msg != "" {
		s.fail(msg)
		return
	}
	s.mu.Lock()
	s.attempted++
	s.mu.Unlock()
}

// addCounts counts o's attempted and failed ops and checks into s, but
// none of its timings: o recorded an untimed warm-up.
func (s *samples) addCounts(o *samples) {
	o.mu.Lock()
	attempted, failed, failures := o.attempted, o.failed, o.failures
	o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted += attempted
	s.failed += failed
	for _, f := range failures {
		if len(s.failures) < maxFailureLines {
			s.failures = append(s.failures, f)
		}
	}
}

// report renders the end-to-end metrics. opsPerS is passed in because
// each workload defines its own throughput unit. The geometric mean of
// the ops' simulated build cost is shown next to them but is not a
// regression metric: the virtual clock repeats exactly.
func (s *samples) report(setupS, opsPerS float64) *report {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := sorted(s.ops)
	return &report{
		attempted: s.attempted, failed: s.failed, failures: s.failures,
		e2e: []metric{
			{"setup_s", setupS, "s"},
			{"ops_per_s", opsPerS, "1/s"},
			{"op_p50_ms", quantile(ops, 0.50), "ms"},
			{"op_p90_ms", quantile(ops, 0.90), "ms"},
			{"peak_rss_mb", peakRSSMB(), "MB"},
		},
		shown: []metric{{"virtual_op_ms", geomean(s.virtual), "ms"}},
	}
}

// describe summarises the ops recorded since the first-th as
// "ops/s p50 p90", taking elapsed as their wall time.
func (s *samples) describe(first int, elapsed time.Duration) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := sorted(s.ops[first:])
	return fmt.Sprintf("%.1f %.1f %.1f", float64(len(ops))/elapsed.Seconds(), quantile(ops, 0.5), quantile(ops, 0.9))
}

// count is the number of successful ops so far.
func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the closest ranks of an
// ascending sample; an empty sample yields 0.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// geomean is the geometric mean of the positive values; 0 if none.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// runtimeLayer reports the Go runtime's view of the run: the live heap
// after a final collection, total bytes allocated since start, and the
// share of CPU the collector used.
func runtimeLayer() []metric {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []metric{
		{"runtime.heap_live_mb", float64(ms.HeapAlloc) / (1 << 20), "MB"},
		{"runtime.alloc_mb", float64(ms.TotalAlloc) / (1 << 20), "MB"},
		{"runtime.gc_cpu_fraction", ms.GCCPUFraction, "ratio"},
	}
}

// setupClock measures set-up: a one-time part paid once per process
// (building the corpus) plus a repeatable part, run several times so the
// median is steady. setup_s is the one-time part plus that median.
type setupClock struct {
	once time.Duration
	reps []float64
}

func (c *setupClock) seconds() float64 { return c.once.Seconds() + median(c.reps) }
