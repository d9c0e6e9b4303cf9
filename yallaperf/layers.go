package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/cpp/lexer"
	"repro/internal/daemon"
	"repro/internal/obs"
)

// srcFile is one distinct source file a workload reads.
type srcFile struct{ path, content string }

// distinctFiles lists every file of the subjects' trees once (by path
// and content hash).
func distinctFiles(subjects []*corpus.Subject) []srcFile {
	seen := map[string]bool{}
	var out []srcFile
	for _, s := range subjects {
		for _, p := range s.FS.List() {
			h, _ := s.FS.ContentHash(p)
			if seen[p+"\x00"+h] {
				continue
			}
			seen[p+"\x00"+h] = true
			c, err := s.FS.Read(p)
			if err == nil {
				out = append(out, srcFile{p, c})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// layerInputs is everything the per-layer table is computed from.
type layerInputs struct {
	ops int // timed ops the layer totals are divided by
	// tracer holds the spans the program recorded; traceT0 is its epoch
	// and window the timed phase (spans starting outside it are set-up
	// or checks).
	tracer  *obs.Tracer
	traceT0 time.Time
	window  [2]time.Time
	// snaps are registry deltas over the timed phase (one per registry).
	snaps []obs.Snapshot
	files []srcFile
	// lwBytes is the mean generated lightweight-header size.
	lwBytes float64
	// Edit outcomes as the client saw them.
	tally editTally
	// noDaemon/noEdits mark layers the workload never runs.
	noDaemon, noEdits bool
	traceFile         string
}

// editTally counts what the client saw of its edits.
type editTally struct {
	structural, cutoffs, reprepares int
	rtt                             time.Duration // client round trips of edit+cycle
	requests                        int
}

// note records one edit+cycle op as the client saw it.
func (t *editTally) note(er daemon.EditResult, cr *daemon.CycleResult, rtt time.Duration) {
	if er.Structural {
		t.structural++
		if er.EarlyCutoff {
			t.cutoffs++
		}
	}
	if cr.Prepared {
		t.reprepares++
	}
	t.rtt += rtt
	t.requests += 2
}

func (t *editTally) merge(o editTally) {
	t.structural += o.structural
	t.cutoffs += o.cutoffs
	t.reprepares += o.reprepares
	t.rtt += o.rtt
	t.requests += o.requests
}

// spanAgg is the per-name total of recorded spans.
type spanAgg struct {
	count           int
	totalMs, selfMs float64
}

// traceEvent is one complete ("X") event of the Chrome trace export.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// exportSpans writes the tracer's Chrome trace JSON to path and
// aggregates the spans that start inside the window by name, with self
// time = duration minus the time covered by direct children. A lane
// belongs to one goroutine, so its spans nest.
func exportSpans(t *obs.Tracer, t0 time.Time, window [2]time.Time, path string) (map[string]*spanAgg, error) {
	var buf bytes.Buffer
	if err := t.Export(&buf); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("trace write: %w", err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("trace parse: %w", err)
	}
	lo := float64(window[0].Sub(t0).Microseconds())
	hi := float64(window[1].Sub(t0).Microseconds())
	lanes := map[[2]int][]traceEvent{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == obs.PidWall && ev.Ts >= lo && ev.Ts <= hi {
			k := [2]int{ev.Pid, ev.Tid}
			lanes[k] = append(lanes[k], ev)
		}
	}
	out := map[string]*spanAgg{}
	for _, evs := range lanes {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		child := make([]float64, len(evs))
		var stack []int
		for i, ev := range evs {
			for len(stack) > 0 {
				top := evs[stack[len(stack)-1]]
				if ev.Ts < top.Ts+top.Dur {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				child[stack[len(stack)-1]] += ev.Dur
			}
			stack = append(stack, i)
		}
		for i, ev := range evs {
			a := out[ev.Name]
			if a == nil {
				a = &spanAgg{}
				out[ev.Name] = a
			}
			a.count++
			a.totalMs += ev.Dur / 1e3
			a.selfMs += (ev.Dur - child[i]) / 1e3
		}
	}
	return out, nil
}

// mergedSnapshot sums counters and histogram counts/sums across
// registries.
type mergedSnapshot struct {
	counters map[string]uint64
	histN    map[string]uint64
	histSum  map[string]float64
}

func merge(snaps []obs.Snapshot) mergedSnapshot {
	m := mergedSnapshot{map[string]uint64{}, map[string]uint64{}, map[string]float64{}}
	for _, s := range snaps {
		for k, v := range s.Counters {
			m.counters[k] += v
		}
		for k, h := range s.Histograms {
			m.histN[k] += h.Count
			m.histSum[k] += h.Sum
		}
	}
	return m
}

func (m mergedSnapshot) histMean(name string) float64 {
	if m.histN[name] == 0 {
		return 0
	}
	return m.histSum[name] / float64(m.histN[name])
}

// diffSnapshot is after minus before for counters and histogram
// counts/sums — the registry's view of the timed phase alone.
func diffSnapshot(before, after obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]obs.HistSnapshot{}}
	for k, v := range after.Counters {
		out.Counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		b := before.Histograms[k]
		out.Histograms[k] = obs.HistSnapshot{Count: h.Count - b.Count, Sum: h.Sum - b.Sum}
	}
	return out
}

// lexRate times lexer.Tokenize over the files, three passes, and
// reports the median pass's throughput plus the token count.
func lexRate(files []srcFile) (mbPerS float64, tokens int, err error) {
	var bytes int
	var rates []float64
	for pass := 0; pass < 3; pass++ {
		tokens, bytes = 0, 0
		start := time.Now()
		for _, f := range files {
			toks, err := lexer.Tokenize(f.path, f.content)
			if err != nil {
				return 0, 0, fmt.Errorf("lex %s: %w", f.path, err)
			}
			tokens += len(toks)
			bytes += len(f.content)
		}
		rates = append(rates, float64(bytes)/1e6/time.Since(start).Seconds())
	}
	return median(rates), tokens, nil
}

// Span names the program records, grouped by the module that owns them.
var (
	coreSpans  = []string{"substitute", "frontend", "analyze", "forward-decls", "wrappers", "transform", "emit"}
	checkSpans = []string{"check", "check.tu"}
	compSpans  = []string{"compile", "frontend cache hit"}
)

// layerMetrics computes every per-layer metric, in the order
// BENCHMARK.json lists them. A layer the workload never runs, or one
// that cannot be seen from outside, reports 0 and adds a note saying
// which.
func layerMetrics(in layerInputs, notes []string) ([]metric, []string, error) {
	spans, err := exportSpans(in.tracer, in.traceT0, in.window, in.traceFile)
	if err != nil {
		return nil, notes, err
	}
	snap := merge(in.snaps)
	ops := float64(max(in.ops, 1))
	self := func(names ...string) float64 {
		var t float64
		for _, n := range names {
			if a := spans[n]; a != nil {
				t += a.selfMs
			}
		}
		return t / ops
	}
	meanSpan := func(name string) float64 {
		if a := spans[name]; a != nil && a.count > 0 {
			return a.totalMs / float64(a.count)
		}
		return 0
	}
	perOp := func(name string) float64 { return float64(snap.counters[name]) / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := snap.counters

	mbps, tokens, err := lexRate(in.files)
	if err != nil {
		return nil, notes, err
	}
	out := []metric{
		{"lexer.mb_per_s", mbps, "MB/s"},
		{"lexer.tokens", float64(tokens), "count"},
		{"preprocessor.self_ms", self("preprocess"), "ms/op"},
		{"preprocessor.files", perOp("preprocessor.files"), "1/op"},
		{"preprocessor.tokens", perOp("preprocessor.tokens"), "1/op"},
		{"parser.self_ms", self("parse"), "ms/op"},
		{"parser.units", perOp("parser.units"), "1/op"},
		{"sema.self_ms", self("sema"), "ms/op"},
		{"sema.decls", perOp("sema.decls"), "1/op"},
		{"core.self_ms", self(coreSpans...), "ms/op"},
		{"core.analyze_ms", self("analyze"), "ms/op"},
		{"core.wrappers_ms", self("wrappers"), "ms/op"},
		{"core.transform_ms", self("transform"), "ms/op"},
		{"core.emit_ms", self("emit"), "ms/op"},
		{"core.wrappers", perOp("substitute.wrappers"), "1/op"},
		{"core.lightweight_bytes", in.lwBytes, "bytes"},
		{"check.self_ms", self(checkSpans...), "ms/op"},
		{"compilesim.self_ms", self(compSpans...), "ms/op"},
		{"compilesim.compiles", perOp("compilesim.compiles"), "1/op"},
		{"pch.self_ms", self("pch.build"), "ms/op"},
		{"pch.builds", perOp("pch.builds"), "1/op"},
		{"pch.blob_bytes", snap.histMean("pch.blob_bytes"), "bytes"},
		{"buildcache.token_hit_ratio", ratio(float64(c["buildcache.token.hits"]), float64(c["buildcache.token.hits"]+c["buildcache.token.misses"])), "ratio"},
		{"buildcache.tu_hit_ratio", ratio(float64(c["buildcache.tu.hits"]), float64(c["buildcache.tu.hits"]+c["buildcache.tu.misses"])), "ratio"},
		{"buildcache.tu_misses", perOp("buildcache.tu.misses"), "1/op"},
		{"buildcache.evictions", perOp("buildcache.evictions"), "1/op"},
		{"buildcache.singleflight_dedup", perOp("buildcache.singleflight.dedup"), "1/op"},
		{"inval.diff_ms", snap.histMean("inval.diff_ms"), "ms"},
		{"inval.cutoff_ratio", ratio(float64(in.tally.cutoffs), float64(in.tally.structural)), "ratio"},
		{"inval.reprepares", float64(in.tally.reprepares) / ops, "1/op"},
		{"inval.decls_diffed", perOp("inval.decls_diffed"), "1/op"},
		{"devcycle.prepare_ms", meanSpan("prepare"), "ms"},
		{"devcycle.cycle_ms", meanSpan("cycle"), "ms"},
		{"devcycle.wrapper_recompiles", perOp("devcycle.wrapper_recompiles"), "1/op"},
		{"daemon.request_ms", snap.histMean("daemon.request_ms"), "ms"},
		{"daemon.http_overhead_ms", httpOverhead(in.tally, snap), "ms"},
		{"daemon.queue_waits", perOp("daemon.queue.waits"), "1/op"},
		{"daemon.rejected", perOp("daemon.rejected"), "1/op"},
		{"vfs.reads", perOp("vfs.reads"), "1/op"},
	}
	out = append(out, runtimeLayer()...)
	notes = append(notes, "not measurable from outside: buildcache.l1_ms (the cache keeps its per-tier latency histograms only when a remote tier is attached) and farm.* (no kept workload runs a farm)")
	if in.noDaemon {
		notes = append(notes, "daemon.*: this workload runs no daemon (reported as 0)")
	}
	if in.noEdits {
		notes = append(notes, "inval.*: this workload makes no edits (reported as 0)")
	}
	return out, notes, nil
}

// addLayers computes the per-layer metrics into rep, and shows the
// simulated compile cost per op next to them (exactly repeatable, so not
// a regression metric).
func addLayers(rep *report, in layerInputs) error {
	var err error
	if rep.layers, rep.notes, err = layerMetrics(in, rep.notes); err != nil {
		return err
	}
	snap := merge(in.snaps)
	rep.shown = append(rep.shown, metric{"compilesim.virtual_ms", snap.histSum["compile.cost_ms"] / float64(max(in.ops, 1)), "ms/op"})
	return nil
}

// httpOverhead is the mean client round trip of the edit and cycle
// requests minus the daemon's own request time for them.
func httpOverhead(t editTally, snap mergedSnapshot) float64 {
	n := snap.histN["daemon.request_ms.edit"] + snap.histN["daemon.request_ms.cycle"]
	if t.requests == 0 || n == 0 {
		return 0
	}
	server := snap.histSum["daemon.request_ms.edit"] + snap.histSum["daemon.request_ms.cycle"]
	return ms(t.rtt)/float64(t.requests) - server/float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
