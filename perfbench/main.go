// Command perfbench is the repository benchmark. It drives the engine's
// public front door from one process — engine.CreateDataset/OpenDataset,
// Session.Do, Tx.Commit, DurableDataset.Checkpoint/Close and
// core.Model.Explore — on one of two workloads and prints every metric by
// name with its unit, then one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is traced and the metrics are the per-layer ones. BENCHMARK.json at the
// repository root lists both sets and describes each workload.
//
// Run it from the repository root with perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload explore-walk --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name  = flag.String("workload", "", "workload: churn-durable or explore-walk")
		seed  = flag.Int64("seed", 1, "seed of the generated inputs")
		secs  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		out   = flag.String("out", ".bench_build", "directory for datasets and span files")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have churn-durable, explore-walk)\n", *name)
		os.Exit(2)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1, --trace 0 or 1")
		os.Exit(2)
	}
	opts := runOptions{seed: *seed, window: time.Duration(*secs) * time.Second, trace: *trace == 1,
		out: *out, setups: setups, cycle: lifecycleCycle, churnCycle: churnCycle}
	res, err := run(wl, opts, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setups is the number of set-ups in a run; setup_s is their median.
const setups = 3

type runOptions struct {
	seed   int64
	window time.Duration
	trace  bool
	out    string
	setups int
	// cycle is the lifecycle tails' cycle, churnCycle churn-durable's.
	cycle, churnCycle cycleConfig
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and prints a readable report to w.
func run(wl workload, o runOptions, w io.Writer) (*result, error) {
	root, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	fmt.Fprintf(w, "workload %s  seed %d  window %v  trace %v\n", wl.name, o.seed, o.window, o.trace)
	m, err := wl.execute(o, root, w)
	if err != nil {
		return nil, err
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, d := range names {
		v, ok := m.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsInf(v, 1) {
			v = infValue
		}
		if math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s has no samples", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d\n", res.Correct, res.Attempted, res.Failed)
	return res, nil
}

// infValue is printed for a percentile that lands on a failed request, whose
// latency counts as infinite; JSON has no infinity.
const infValue = 1e300
