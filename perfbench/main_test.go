package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the test checks the program
// against.
type benchmarkFile struct {
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

// TestWorkloadsShort runs every workload briefly on a small circuit, traced
// and untraced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that the correctness checks pass.
func TestWorkloadsShort(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	small := cycleConfig{Commits: 30, Tail: 6, Interval: 2 * time.Millisecond, Inserts: 10, Deletes: 3, Updates: 3}
	for _, sw := range spec.Workloads {
		wl, ok := workloadByName(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the program", sw.Name)
		}
		wl.size.Neurons = 24
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(wl, runOptions{seed: 7, window: 500 * time.Millisecond, trace: trace,
					out: t.TempDir(), setups: 1, cycle: small, churnCycle: small}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out.String(), m.Name) {
						t.Errorf("metric %s missing from the readable report", m.Name)
					}
				}
			})
		}
	}
}
