package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/daemon"
	"repro/internal/obs"
)

// editLoopWorkers is the daemon's worker pool, sized for a 2-CPU box.
const editLoopWorkers = 2

// shippedMaxCachedTUs is cmd/yallad's -max-cached-tus default.
const shippedMaxCachedTUs = 4096

// daemonRig is one in-process yallad on a loopback port.
type daemonRig struct {
	srv     *daemon.Server
	reg     *obs.Registry
	tracer  *obs.Tracer
	traceT0 time.Time
	client  *daemon.Client
	cancel  context.CancelFunc
	done    chan error
	once    sync.Once
}

// startDaemon starts a daemon with the shipped defaults (LRU cap of 4096
// TUs, no byte cap). The registry is always on — the rebuild check reads
// it; the tracer only in traced runs.
func startDaemon(traced bool) (*daemonRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	d := &daemonRig{reg: obs.NewRegistry(), done: make(chan error, 1)}
	cfg := daemon.Config{
		Workers:      editLoopWorkers,
		MaxCachedTUs: shippedMaxCachedTUs,
		Registry:     d.reg,
	}
	if traced {
		d.traceT0 = time.Now()
		d.tracer = obs.NewTracer(nil)
		cfg.Tracer = d.tracer
		cfg.TraceRetention = 1 << 30 // keep every request lane for the export
	}
	d.srv = daemon.New(cfg)
	var ctx context.Context
	ctx, d.cancel = context.WithCancel(context.Background())
	go func() { d.done <- d.srv.Serve(ctx, ln) }()
	d.client = daemon.NewClient("http://" + ln.Addr().String())
	return d, nil
}

// stop drains the daemon and waits for it to exit; later calls are
// no-ops.
func (d *daemonRig) stop() {
	d.once.Do(func() {
		d.cancel()
		<-d.done
	})
}

// join opens a yalla session, runs its first build, and reads the
// compiled source the Prepare generated.
func join(c *daemon.Client, ss *session) error {
	if _, err := c.CreateSession(ss.name, ss.subj.Name, "yalla"); err != nil {
		return fmt.Errorf("%s: create: %w", ss.name, err)
	}
	if _, err := c.Cycle(ss.name, ""); err != nil {
		return fmt.Errorf("%s: first cycle: %w", ss.name, err)
	}
	return ss.reload(c)
}

// firstPerLibrary is each library's first subject in corpus (Table 2)
// order: 02, archiver, 3calibration, chat_server.
func firstPerLibrary(all []*corpus.Subject) []*corpus.Subject {
	var out []*corpus.Subject
	for _, lib := range corpus.Libraries() {
		for _, s := range all {
			if s.Library == lib {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// editLoop is the loop the daemon exists for: one closed-loop client
// with zero think time drives four prepared yalla sessions (one per
// library) through the seeded edit stream. An op is Client.Edit then
// Client.Cycle — save to rebuilt.
//
// The run is a series of trials, each on a freshly set up daemon (whose
// set-up is timed for setup_s) and each exactly one round of 200 ops:
// one edit block per session, so the stated mix and one interface edit
// per session. Every trial thus does the same work from the same state,
// and the memory an interface edit leaves behind grows over one round,
// not the whole run. The first trial is an untimed warm-up: a
// process's first round runs 5-25% slower than its later ones. Timed
// trials start until --seconds have passed since the first of them
// began, at least two of them; samples are pooled over them. A traced
// run has one timed trial, so its trace and registry cover exactly the
// ops it counts, and no warm-up: the untraced half before it warmed the
// process. Smoke runs have one trial.
func editLoop(cfg config) (*report, error) {
	var clock setupClock
	t0 := time.Now()
	all := corpus.All()
	clock.once = time.Since(t0)
	picks := firstPerLibrary(all)
	if cfg.tiny {
		picks = picks[:2]
	}
	full := !cfg.trace && !cfg.tiny
	minTimed := 1
	if full {
		minTimed = 2
	}
	smp := &samples{}
	lw := &lightweightSizes{bytes: map[string]int{}}
	var (
		tally         editTally
		timed         time.Duration
		before, after obs.Snapshot
		start, end    time.Time
		tracer        *obs.Tracer
		traceT0       time.Time
		trials        int
		perTrial      []string
	)
	var timedStart time.Time
	for trial := 0; ; trial++ {
		warmup := full && trial == 0
		if !warmup && trials >= minTimed && (cfg.trace || time.Since(timedStart) >= cfg.duration()) {
			break
		}
		runtime.GC() // drop the previous trial's daemon: start clean
		setupStart := time.Now()
		if !warmup && trials == 0 {
			timedStart = setupStart
		}
		d, sessions, err := openSessions(picks, cfg)
		if err != nil {
			return nil, err
		}
		clock.reps = append(clock.reps, time.Since(setupStart).Seconds())
		// Start the round on a collected heap, so every round's
		// collections fall at the same points of its allocation and
		// the set-up's garbage is not charged to its first ops.
		runtime.GC()

		rng := rand.New(rand.NewSource(cfg.seed*100 + int64(trial)))
		into := smp
		if warmup {
			into = &samples{}
		}
		before = d.reg.Snapshot()
		first := into.count()
		start = time.Now()
		t := runRound(d, sessions, rng, into)
		end = time.Now()
		after = d.reg.Snapshot()
		desc := into.describe(first, end.Sub(start))
		verdicts := make([]string, len(sessions))
		onTwo(len(sessions), func(i int) error {
			verdicts[i] = sessions[i].verify(d.client)
			return nil
		})
		for i, ss := range sessions {
			into.check(verdicts[i])
			if c, err := d.client.ReadFile(ss.name, lightweightPath(ss.subj)); err == nil {
				lw.note(ss.subj.Name, c)
			}
		}
		d.stop()
		if warmup {
			smp.addCounts(into)
			perTrial = append(perTrial, "warm-up "+desc)
			continue
		}
		trials++
		perTrial = append(perTrial, desc)
		tally.merge(t)
		timed += end.Sub(start)
		tracer, traceT0 = d.tracer, d.traceT0
	}

	rep := smp.report(clock.seconds(), float64(smp.count())/timed.Seconds())
	rep.notes = append(rep.notes, fmt.Sprintf("%d ops in %d timed trials of one round, %.1f s timed, over sessions %s; %d re-Prepares",
		smp.count(), trials, timed.Seconds(), subjectNames(picks), tally.reprepares),
		"per trial (ops/s, p50, p90 ms): "+strings.Join(perTrial, "; "))
	if cfg.trace {
		// The trial's daemon has stopped, so every request lane has
		// ended and the trace can be exported.
		in := layerInputs{
			ops:       smp.count(),
			tracer:    tracer,
			traceT0:   traceT0,
			window:    [2]time.Time{start, end},
			snaps:     []obs.Snapshot{diffSnapshot(before, after)},
			files:     distinctFiles(picks),
			lwBytes:   lw.mean(),
			tally:     tally,
			traceFile: cfg.traceFile(),
		}
		if err := addLayers(rep, in); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runRound drives the sessions through one seeded round of the stream.
func runRound(d *daemonRig, sessions []*session, rng *rand.Rand, smp *samples) editTally {
	c := d.client
	misses := d.reg.Counter("buildcache.tu.misses")
	deck := &editDeck{rng: rng, sessions: len(sessions)}
	var tally editTally
	for n := 1; n <= deck.roundSize(); n++ {
		cd := deck.next()
		ss, kind := sessions[cd.session], cd.kind
		p, content := ss.edit(kind, n)
		m0 := misses.Value()
		opStart := time.Now()
		er, err := c.Edit(ss.name, p, content)
		var cr *daemon.CycleResult
		if err == nil {
			cr, err = c.Cycle(ss.name, "")
		}
		wall := time.Since(opStart)
		switch {
		case err != nil:
			smp.fail(fmt.Sprintf("%s %s: %v", ss.name, kind, err))
		case kind.isSource() && misses.Value() == m0:
			smp.fail(fmt.Sprintf("%s %s edit to %s rebuilt nothing", ss.name, kind, p))
		default:
			smp.op(wall, cr.TotalMs+cr.SetupMs+cr.WrappersMs)
		}
		if err == nil {
			tally.note(er, cr, wall)
			if cr.Prepared {
				if err := ss.reload(c); err != nil {
					smp.fail(err.Error())
				}
			}
		}
	}
	return tally
}

// warmEdits is how many source edits each session gets during set-up,
// after one benign header edit that plants the header probe: the first
// edits of a fresh session run slower than the steady loop.
const warmEdits = 4

const warmBase = 1 << 30

// openSessions starts a daemon, joins one yalla session per subject
// (create, then the first Cycle, which Prepares it), and warms each with
// a few untimed edits, two sessions at a time.
func openSessions(picks []*corpus.Subject, cfg config) (*daemonRig, []*session, error) {
	d, err := startDaemon(cfg.trace)
	if err != nil {
		return nil, nil, err
	}
	sessions := make([]*session, len(picks))
	err = onTwo(len(picks), func(i int) error {
		s := picks[i]
		ss, err := newSession(fmt.Sprintf("edit-%d-%s", i, s.Name), s, cfg.plant)
		if err == nil {
			err = join(d.client, ss)
		}
		for k := 0; err == nil && k <= warmEdits; k++ {
			kind := srcBody
			switch {
			case k == 0:
				kind = hdrBenign
			case k%2 == 1:
				kind = srcComment
			}
			// Numbers from warmBase up never collide with the timed
			// phase's.
			p, content := ss.edit(kind, warmBase+k)
			if _, err = d.client.Edit(ss.name, p, content); err == nil {
				_, err = d.client.Cycle(ss.name, "")
			}
		}
		sessions[i] = ss
		return err
	})
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, sessions, nil
}

// onTwo runs f(0), …, f(n-1) on two goroutines — the CPU count the
// loads are sized for — and returns the first error in index order.
func onTwo(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func subjectNames(ss []*corpus.Subject) string {
	var names []string
	for _, s := range ss {
		names = append(names, s.Name)
	}
	return strings.Join(names, ",")
}
