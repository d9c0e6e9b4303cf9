package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests hold the output to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs one workload at smoke size and returns its parsed last
// line and its whole output.
func smoke(t *testing.T, cfg config) (result, string, string) {
	t.Helper()
	cfg.seed, cfg.seconds, cfg.repo, cfg.reps, cfg.tiny = 7, 1, "..", 1, true
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	printReport(&stdout, &stderr, cfg, rep)
	res, ok := lastJSON(stdout.Bytes())
	if !ok {
		t.Fatalf("no JSON result line\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
	if res.Failed != rep.failed || res.Attempted != rep.attempted || res.Correct != (rep.failed == 0) {
		t.Errorf("result line %+v disagrees with the run's counts", res)
	}
	return res, stdout.String(), stderr.String()
}

// checkMetrics asserts the result holds exactly the named metrics, each
// with its unit, and that each also printed as a table row.
func checkMetrics(t *testing.T, res result, out string, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
		if !strings.Contains(out, " "+m.Name+" ") {
			t.Errorf("metric %s has no table row", m.Name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out, errs := smoke(t, config{workload: w.Name})
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("result %+v\n%s%s", res, out, errs)
			}
			checkMetrics(t, res, out, s.EndToEnd)
			if !strings.Contains(out, " error_rate ") {
				t.Error("error_rate has no table row")
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, out, errs := smoke(t, config{workload: w.Name, trace: true})
			if !res.Correct {
				t.Fatalf("result %+v\n%s%s", res, out, errs)
			}
			checkMetrics(t, res, out, s.PerLayer)
			if res.Metrics["devcycle.prepare_ms"].Value <= 0 || res.Metrics["preprocessor.self_ms"].Value <= 0 {
				t.Errorf("traced run measured no span time:\n%s", out)
			}
		})
	}
}

// TestPlantedUncompiledEditFails aims every source edit at
// src/<subject>.cpp, which yalla mode never compiles: each such edit
// rebuilds nothing and must count as a failed op.
func TestPlantedUncompiledEditFails(t *testing.T) {
	res, out, errs := smoke(t, config{workload: "edit-loop", plant: true})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("planted edits to the uncompiled source were not reported as failed ops\n%s", out)
	}
	if !strings.Contains(errs, "rebuilt nothing") {
		t.Errorf("no rebuild-check failure reported:\n%s", errs)
	}
}

// TestEditDeckMix pins the stream's exact per-round mix and the
// interface edits' slots at the end of each quarter of the round.
func TestEditDeckMix(t *testing.T) {
	d := &editDeck{rng: rand.New(rand.NewSource(3)), sessions: 4}
	counts := map[card]int{}
	for i := 0; i < d.roundSize(); i++ {
		c := d.next()
		counts[c]++
		if want := i%editBlockSize == editBlockSize-1; (c.kind == hdrInterface) != want {
			t.Errorf("op %d is %s: interface edits belong at the end of each quarter", i, c.kind)
		}
	}
	for s := 0; s < 4; s++ {
		for _, b := range editBlock {
			if got := counts[card{s, b.kind}]; got != b.n {
				t.Errorf("session %d %s: %d per round, want %d", s, b.kind, got, b.n)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
