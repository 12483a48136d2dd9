// Command benchmark is the repository's one benchmark: four named workloads
// over the whole statement path, end-to-end metrics measured untraced and
// per-layer metrics measured in a traced run. See README.md.
//
//	bash benchmark/run.sh                       every workload, both runs
//	bash benchmark/run.sh --workload serving_hot --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workloadResult is one workload's entry in result.json.
type workloadResult struct {
	Why       string    `json:"why"`
	Loop      string    `json:"loop"`
	Data      string    `json:"data"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Host      map[string]any            `json:"host"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
	Claim     *string                   `json:"claim"` // this benchmark measures; it claims nothing
}

func hostBlock(cfg config) map[string]any {
	cpu, commit := "unknown", "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpu, "go": runtime.Version(), "commit": commit, "seed": cfg.seed}
}

func printMetrics(workload, kind string, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-14s %-10s %-40s %16.4f %s\n", workload, kind, name, m[name].Value, m[name].Unit)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := config{scale: 1}
	only := flag.String("workload", "", "run this workload only (default: all four)")
	trace := flag.Int("trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); default both")
	flag.Int64Var(&cfg.seed, "seed", 20120827, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds of each run")
	flag.StringVar(&cfg.out, "out", filepath.Join("benchmark", "out"), "directory for result.json, span files and the run's databases")
	flag.Parse()
	selected := workloads
	if *only != "" {
		w, ok := findWorkload(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *only)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	file := resultFile{Host: hostBlock(cfg), Seconds: cfg.seconds, Workloads: map[string]workloadResult{}}
	var last outcome
	ok := true
	for _, w := range selected {
		res := workloadResult{Why: w.why, Loop: w.loop, Data: w.data}
		note := func(o outcome) {
			res.Attempted += o.Attempted
			res.Failed += o.Failed
			if o.err != nil {
				res.Error = o.err.Error()
				fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, o.err)
			}
			ok = ok && o.Correct
			last = o
		}
		if *trace != 1 {
			o := runUntraced(w, cfg)
			res.EndToEnd = o.Metrics
			printMetrics(w.name, "end_to_end", o.Metrics)
			fmt.Printf("%-14s %-10s %-40s %16.4f %s\n", w.name, "end_to_end", "failed_share", ratio(float64(o.Failed), float64(o.Attempted)), "ratio")
			note(o)
		}
		if *trace != 0 {
			o, spans := runTraced(w, cfg)
			res.PerLayer = o.Metrics
			printMetrics(w.name, "per_layer", o.Metrics)
			if err := writeSpans(filepath.Join(cfg.out, "trace_"+w.name+".json"), spans); err != nil {
				fmt.Fprintln(os.Stderr, err)
				ok = false
			}
			note(o)
		}
		file.Workloads[w.name] = res
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.out, "result.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		ok = false
	}

	// The last line of standard output is the run's verdict as one JSON
	// object: one workload in one mode prints that run's metrics, anything
	// else the totals.
	summary := outcome{Correct: ok, Metrics: metricSet{}}
	if len(selected) == 1 && *trace >= 0 {
		summary = last
		summary.Correct = ok
	} else {
		for _, res := range file.Workloads {
			summary.Attempted += res.Attempted
			summary.Failed += res.Failed
		}
	}
	line, _ := json.Marshal(summary)
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}
