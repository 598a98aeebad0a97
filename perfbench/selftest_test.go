package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

const specFile = "../BENCHMARK.json"

// TestSelfTest runs every workload in short mode, traced and untraced,
// and checks the contract with BENCHMARK.json: every named metric is
// printed with its unit, every layer metric is measured by some
// workload, nothing measured goes unnamed, and no task fails.
func TestSelfTest(t *testing.T) {
	sp, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(true)
	if len(ws) != len(sp.Workloads) {
		t.Fatalf("harness has %d workloads, %s names %d", len(ws), specFile, len(sp.Workloads))
	}
	named := map[string]string{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		named[m.Name] = m.Unit
	}
	measured := map[string]bool{}
	for i, w := range ws {
		if w.name != sp.Workloads[i].Name {
			t.Errorf("workload %d is %q, %s names %q", i, w.name, specFile, sp.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			var stderr bytes.Buffer
			cfg := config{workload: w.name, seed: 1, budget: time.Second, trace: traced,
				short: true, workdir: t.TempDir(), commit: "test"}
			out, err := measure(cfg, io.Discard, &stderr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed:\n%s", w.name, traced, out.failed, out.attempted, stderr.String())
			}
			for k := range out.values {
				measured[k] = true
				if _, ok := named[k]; !ok {
					t.Errorf("%s trace=%v measures %q, which %s does not name", w.name, traced, k, specFile)
				}
			}
			line, err := json.Marshal(out.result(sp, traced))
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			list := sp.EndToEnd
			if traced {
				list = sp.PerLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%v prints %d metrics, want %d", w.name, traced, len(res.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if traced && res.Metrics["bench.fail_frac"].Value != 0 {
				t.Errorf("%s: bench.fail_frac = %v", w.name, res.Metrics["bench.fail_frac"].Value)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}

// TestUnknownWorkload checks that a bad invocation exits non-zero
// without printing a result.
func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "nope", "--spec", specFile, "--workdir", t.TempDir()}, &stdout, &stderr)
	if code == 0 || strings.Contains(stdout.String(), `"metrics"`) {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
