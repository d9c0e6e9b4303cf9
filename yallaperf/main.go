// Command yallaperf is the repository's benchmark. It drives the Header
// Substitution pipeline and the yallad daemon in-process through two
// seeded workloads, checks every output, and prints one row per metric
// followed by a JSON summary on the last line:
//
//	yallaperf --workload cold-matrix|edit-loop|all --seed N --seconds S --trace 0|1
//
// Run it from the repository root (results/ holds the committed outputs
// the cold-matrix ops are checked against). --trace 0 reports the
// end-to-end metrics of an untraced run; --trace 1 runs the workload
// untraced and then traced (half the time each), writes the traced
// half's Chrome trace JSON to .bench_build/, and reports the per-layer
// metrics plus the tracing overhead. --workload all runs each workload
// in its own process. The exit code is nonzero when any output check or
// rebuild check failed. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// repo is the repository root: results/ is read from it and traces
	// go to its .bench_build/.
	repo string
	// reps is how many times set-up repeats for the setup_s median
	// (edit-loop times one trial after each).
	reps int
	// tiny shrinks the workload to a smoke run for the self-tests.
	tiny bool
	// plant aims every source edit at the subject's own source file,
	// which yalla mode never compiles, so each one rebuilds nothing; the
	// self-tests use it to prove the rebuild check fires.
	plant bool
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// traceFile is where a traced run writes its Chrome trace JSON.
func (c config) traceFile() string {
	return filepath.Join(c.repo, ".bench_build", "yallaperf-"+c.workload+".trace.json")
}

var workloads = map[string]func(config) (*report, error){
	"cold-matrix": coldMatrix,
	"edit-loop":   editLoop,
}

var workloadOrder = []string{"cold-matrix", "edit-loop"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("yallaperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "cold-matrix, edit-loop, or all")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 36, "timed-phase length in seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "yallaperf: --trace takes 0 or 1, --seconds a positive number")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "yallaperf: unknown workload %q (want %s or all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, repo: ".", reps: 3}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "yallaperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, stderr, cfg, rep)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs the untraced workload, or for a traced invocation an
// untraced half followed by a traced half, whose difference is the
// tracing overhead.
func runWorkload(cfg config) (*report, error) {
	fn := workloads[cfg.workload]
	if !cfg.trace {
		return fn(cfg)
	}
	if err := os.MkdirAll(filepath.Dir(cfg.traceFile()), 0o755); err != nil {
		return nil, fmt.Errorf("trace directory: %w", err)
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	half.reps = 1
	half.trace = false
	base, err := fn(half)
	if err != nil {
		return nil, err
	}
	half.trace = true
	traced, err := fn(half)
	if err != nil {
		return nil, err
	}
	b, t := byName(base.e2e), byName(traced.e2e)
	traced.layers = append(traced.layers,
		metric{"trace.overhead_op_p50_ms", t["op_p50_ms"] - b["op_p50_ms"], "ms"},
		metric{"trace.overhead_ops_per_s", b["ops_per_s"] - t["ops_per_s"], "1/s"},
	)
	traced.attempted += base.attempted
	traced.failed += base.failed
	traced.failures = append(base.failures, traced.failures...)
	traced.notes = append(traced.notes, fmt.Sprintf("trace written to %s", cfg.traceFile()))
	return traced, nil
}

func byName(ms []metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes one row per metric, the notes, and the JSON line.
func printReport(stdout, stderr io.Writer, cfg config, rep *report) {
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layers
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	rows := append(append([]metric(nil), metrics...), rep.shown...)
	rows = append(rows, metric{"error_rate", errRate, "ratio"})
	for _, m := range rows {
		fmt.Fprintf(stdout, "%-12s %-32s %16.4f %s\n", cfg.workload, m.Name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "# %s: %s\n", cfg.workload, n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "yallaperf: %s: FAILED %s\n", cfg.workload, f)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	b, _ := json.Marshal(res) // plain structs of strings and finite floats
	fmt.Fprintln(stdout, string(b))
}

// runAll runs every workload in its own process (so each peak RSS is
// its own), passing the other flags through, and prints their rows plus
// one summary JSON line. It fails if any workload failed.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "yallaperf: %v\n", err)
		return 1
	}
	var pass []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		pass = append(pass, a)
	}
	code := 0
	summary := map[string]result{}
	for _, w := range workloadOrder {
		var out bytes.Buffer
		cmd := exec.Command(self, append([]string{"--workload", w}, pass...)...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintf(stderr, "yallaperf: %s: %v\n", w, err)
			}
			code = 1
		}
		if res, ok := lastJSON(out.Bytes()); ok {
			summary[w] = res
		} else {
			code = 1
		}
	}
	b, _ := json.Marshal(summary)
	fmt.Fprintln(stdout, string(b))
	return code
}

// lastJSON parses the last non-empty line of a workload's output.
func lastJSON(out []byte) (result, bool) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, false
	}
	return res, true
}
