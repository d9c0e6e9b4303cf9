package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// coldWorkers is the cold-matrix worker count, sized for a 2-CPU box.
const coldWorkers = 2

var coldModes = []devcycle.Mode{devcycle.Default, devcycle.PCH, devcycle.Yalla}

// coldOp is one subject × mode: PrepareWith plus one Cycle.
type coldOp struct {
	s    *corpus.Subject
	mode devcycle.Mode
}

// coldMatrix is the paper's evaluation as a cold start: every corpus
// subject × {Default, PCH, Yalla}, each a PrepareWith plus one Cycle
// over a build cache of its own, on two workers. A pass runs all 54 ops
// in a seeded subject order. Passes start until the time is up and the
// pass under way finishes, so every run measures whole passes — the same
// multiset of ops — however fast the program is.
func coldMatrix(cfg config) (*report, error) {
	gold, err := loadGolden(cfg.repo)
	if err != nil {
		return nil, err
	}
	var clock setupClock
	t0 := time.Now()
	subjects := corpus.All()
	clock.once = time.Since(t0)
	if cfg.tiny {
		subjects = tinySubjects(subjects)
	}
	// Warm-up: one Default Prepare+Cycle of each library's first subject,
	// so lazy process-wide state (the corpus trees' hash memos, the
	// identifier interner) is built before timing.
	for rep := 0; rep < cfg.reps; rep++ {
		start := time.Now()
		seen := map[string]bool{}
		for _, s := range subjects {
			if seen[s.Library] {
				continue
			}
			seen[s.Library] = true
			st, err := devcycle.PrepareWith(s, devcycle.Default, devcycle.Config{Cache: buildcache.New()})
			if err == nil {
				_, err = st.Cycle()
			}
			if err != nil {
				return nil, fmt.Errorf("cold-matrix warm-up %s: %w", s.Name, err)
			}
		}
		clock.reps = append(clock.reps, time.Since(start).Seconds())
	}

	var (
		tracer  *obs.Tracer
		traceT0 time.Time
		reg     *obs.Registry
		root    *obs.Obs
	)
	if cfg.trace {
		traceT0 = time.Now()
		tracer = obs.NewTracer(nil)
		reg = obs.NewRegistry()
		root = obs.New(tracer, reg)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	smp := &samples{}
	lw := &lightweightSizes{bytes: map[string]int{}}
	var passTimes []string
	deadline := time.Now().Add(cfg.duration())
	start := time.Now()
	for time.Now().Before(deadline) {
		passStart := time.Now()
		order := append([]*corpus.Subject(nil), subjects...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		ops := make(chan coldOp)
		var wg sync.WaitGroup
		for w := 0; w < coldWorkers; w++ {
			wg.Add(1)
			o := root.Lane(fmt.Sprintf("worker %d", w+1))
			go func() {
				defer wg.Done()
				for op := range ops {
					runColdOp(op, o, gold, smp, lw)
				}
			}()
		}
		for _, s := range order {
			for _, m := range coldModes {
				ops <- coldOp{s, m}
			}
		}
		close(ops)
		wg.Wait()
		passTimes = append(passTimes, fmt.Sprintf("%.2f", time.Since(passStart).Seconds()))
	}
	end := time.Now()
	elapsed := end.Sub(start)
	rep := smp.report(clock.seconds(), float64(smp.count())/elapsed.Seconds())
	rep.shown = append(rep.shown, metric{"virtual_cycle_ms", goldenYallaCycle(gold, subjects), "ms"})
	rep.notes = append(rep.notes, fmt.Sprintf("%d ops in %d whole passes of %s s", smp.count(), len(passTimes), strings.Join(passTimes, ", ")))
	if cfg.trace {
		in := layerInputs{
			ops:       smp.count(),
			tracer:    tracer,
			traceT0:   traceT0,
			window:    [2]time.Time{start, end},
			snaps:     []obs.Snapshot{reg.Snapshot()},
			files:     distinctFiles(subjects),
			lwBytes:   lw.mean(),
			noDaemon:  true,
			noEdits:   true,
			traceFile: cfg.traceFile(),
		}
		if err := addLayers(rep, in); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runColdOp runs and checks one subject × mode on a fresh cache.
func runColdOp(op coldOp, o *obs.Obs, gold *golden, smp *samples, lw *lightweightSizes) {
	start := time.Now()
	bc := buildcache.New()
	bc.AttachMetrics(o)
	st, err := devcycle.PrepareWith(op.s, op.mode, devcycle.Config{Cache: bc, Obs: o})
	if err != nil {
		smp.fail(fmt.Sprintf("%s/%v prepare: %v", op.s.Name, op.mode, err))
		return
	}
	st.SetObs(o)
	t, err := st.Cycle()
	wall := time.Since(start)
	if err != nil {
		smp.fail(fmt.Sprintf("%s/%v cycle: %v", op.s.Name, op.mode, err))
		return
	}
	if msg := gold.verify(op.s, op.mode, t, st); msg != "" {
		smp.fail(msg)
		return
	}
	if op.mode == devcycle.Yalla {
		if c, err := st.FS.Read(lightweightPath(op.s)); err == nil {
			lw.note(op.s.Name, c)
		}
	}
	smp.op(wall, ms(st.Setup.Total()+t.Total()))
}

// lightweightSizes records the generated lightweight header's size per
// subject. Safe for concurrent use.
type lightweightSizes struct {
	mu    sync.Mutex
	bytes map[string]int
}

func (l *lightweightSizes) note(subject, content string) {
	l.mu.Lock()
	l.bytes[subject] = len(content)
	l.mu.Unlock()
}

// lightweightPath is where the tool writes a subject's lightweight
// header.
func lightweightPath(s *corpus.Subject) string {
	return vfs.Clean(s.OutDir() + "/lightweight_header.hpp")
}

func (l *lightweightSizes) mean() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var xs []float64
	for _, n := range l.bytes {
		xs = append(xs, float64(n))
	}
	return mean(xs)
}

// goldenYallaCycle is the paper's Table 2 development-cycle column as a
// geometric mean over subjects, read from the committed rows that every
// Yalla op was just checked against.
func goldenYallaCycle(g *golden, subjects []*corpus.Subject) float64 {
	var xs []float64
	for _, s := range subjects {
		var c, l, r float64
		if _, err := fmt.Sscanf(g.cycle[s.Name+"/"+devcycle.Yalla.String()], "%g,%g,%g", &c, &l, &r); err == nil {
			xs = append(xs, c+l+r)
		}
	}
	return geomean(xs)
}

// tinySubjects keeps two small subjects — the smoke size the self-tests
// run.
func tinySubjects(all []*corpus.Subject) []*corpus.Subject {
	keep := map[string]bool{"condense": true, "drawing": true}
	var out []*corpus.Subject
	for _, s := range all {
		if keep[s.Name] {
			out = append(out, s)
		}
	}
	return out
}
