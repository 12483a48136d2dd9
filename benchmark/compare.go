package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare needs: each metric's direction
// and, for end-to-end metrics, the bound by which it may worsen.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one side of a comparison: one or more result files of one commit.
type side []resultFile

func loadSide(arg string) (side, error) {
	var s side
	for _, path := range strings.Split(arg, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, f)
	}
	return s, nil
}

// values collects one metric of one workload over the side's runs.
func (s side) values(workload, name string, perLayer bool) (vals []float64) {
	for _, f := range s {
		m := f.Workloads[workload].EndToEnd
		if perLayer {
			m = f.Workloads[workload].PerLayer
		}
		if v, ok := m[name]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

// failedShare is failed over attempted operations across the side's runs.
func (s side) failedShare(workload string) float64 {
	var failed, attempted int
	for _, f := range s {
		failed += f.Workloads[workload].Failed
		attempted += f.Workloads[workload].Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// compareMain implements `compare a.json b.json`: a is the base (the parent
// commit), b the change; either may be a comma-separated list of runs, whose
// median is compared and whose spread decides "unresolved". It returns the
// exit code: 1 on any regression or any increase of failed_share.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] base.json[,base2.json...] change.json[,change2.json...]")
		return 2
	}
	var sp spec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	base, err := loadSide(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := loadSide(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// Throughput, tails and sample counts all depend on the window's length,
	// so runs of different lengths do not compare.
	for _, f := range append(base, change...) {
		if f.Seconds != base[0].Seconds {
			fmt.Fprintf(os.Stderr, "runs of %g s and of %g s do not compare\n", base[0].Seconds, f.Seconds)
			return 2
		}
	}
	names := map[string]bool{}
	for _, f := range append(base, change...) {
		for name := range f.Workloads {
			names[name] = true
		}
	}
	order := make([]string, 0, len(names))
	for name := range names {
		order = append(order, name)
	}
	sort.Strings(order)

	bad := false
	fmt.Printf("%-14s %-36s %14s %14s %8s  %-36s %7s %7s %6s  %s\n",
		"workload", "metric", "base", "change", "ratio", "(ratio's base)", "spr.a", "spr.b", "bound", "verdict")
	for _, w := range order {
		row := func(m specMetric, perLayer bool) {
			va, vb := base.values(w, m.Name, perLayer), change.values(w, m.Name, perLayer)
			if len(va) == 0 || len(vb) == 0 {
				return
			}
			a, c := median(va), median(vb)
			worse := ratio(c-a, a) // share of the base by which the change is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "-" // per-layer metrics carry no bound
			if !perLayer {
				switch {
				case worse > m.Bound:
					verdict, bad = "regressed", true
				case max(spread(va), spread(vb)) > m.Bound:
					verdict = "unresolved"
				default:
					verdict = "unchanged"
				}
				if wl, _ := findWorkload(w); slices.Contains(wl.standIns, m.Name) {
					verdict += " (stand-in)"
				}
			}
			fmt.Printf("%-14s %-36s %14.4f %14.4f %8.4f  %-36s %7.4f %7.4f %6.2f  %s\n",
				w, m.Name, a, c, ratio(c, a), fmt.Sprintf("(base %.4g, %s better)", a, m.Better),
				spread(va), spread(vb), m.Bound, verdict)
		}
		for _, m := range sp.EndToEnd {
			row(m, false)
		}
		fa, fb := base.failedShare(w), change.failedShare(w)
		verdict := "unchanged"
		if fb > fa {
			verdict, bad = "regressed", true
		}
		fmt.Printf("%-14s %-36s %14.6f %14.6f %8s  %-36s %7s %7s %6s  %s\n",
			w, "failed_share", fa, fb, "", "(any increase regresses)", "", "", "", verdict)
		for _, m := range sp.PerLayer {
			row(m, true)
		}
	}
	if bad {
		return 1
	}
	return 0
}
