package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is BENCHMARK.json as far as the smoke test checks it.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specUnit              `json:"end_to_end"`
	PerLayer  []specUnit              `json:"per_layer"`
}

type specUnit struct{ Name, Unit string }

// TestSmoke runs every workload at 1/100 scale for a fraction of a second in
// both modes, so a refactor that breaks a probe, renames a metric or pushes a
// workload out of its cache regime fails here and not in the next
// benchmark run.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	cfg := config{seed: 20120827, seconds: 0.5, scale: 0.01, out: t.TempDir()}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, o outcome, want []specUnit) {
		t.Helper()
		if o.err != nil || !o.Correct || o.Failed != 0 || o.Attempted == 0 {
			t.Fatalf("correct=%v attempted=%d failed=%d err=%v", o.Correct, o.Attempted, o.Failed, o.err)
		}
		for _, m := range want {
			got, ok := o.Metrics[m.Name]
			if !ok {
				t.Errorf("metric %s is in BENCHMARK.json but was not emitted", m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("metric %s: emitted unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", m.Name)
			}
		}
		if len(o.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(o.Metrics), len(want))
		}
	}
	for i, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if spec.Workloads[i].Name != w.name {
				t.Errorf("BENCHMARK.json workload %d is %q", i, spec.Workloads[i].Name)
			}
			untraced := runUntraced(w, cfg)
			check(t, untraced, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if untraced.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, untraced.Metrics[m.Name].Value)
				}
			}
			traced, spans := runTraced(w, cfg)
			check(t, traced, spec.PerLayer)
			if len(spans) == 0 {
				t.Error("the traced run recorded no span")
			}
			// The regimes the workloads are named for.
			blocks := traced.Metrics["storage.block_cache_hit_ratio"].Value
			plans := traced.Metrics["plancache.hit_ratio"].Value
			switch w.name {
			case "analytic_cold":
				if blocks >= 0.10 {
					t.Errorf("block-cache hit ratio %.3f: analytic_cold no longer overflows the cache", blocks)
				}
			case "serving_hot", "serving_fetch":
				if w.name == "serving_hot" && blocks <= 0.95 {
					t.Errorf("block-cache hit ratio %.3f: serving_hot no longer fits the cache", blocks)
				}
				if plans <= 0.95 {
					t.Errorf("plan-cache hit ratio %.3f: %s no longer repeats its statement shapes", plans, w.name)
				}
			}
		})
	}
}
