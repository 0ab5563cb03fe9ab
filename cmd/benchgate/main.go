// Command benchgate enforces the perf contract between two `go test
// -bench` runs:
//
//	benchgate -old old.txt -new new.txt [-max-slowdown 0.10] [-filter Match,Rank]
//	          [-eff-filter EstimateRecipes/parallel_cached] [-max-eff-drop 0.10]
//
// It exits nonzero if any benchmark present in both runs got more than
// -max-slowdown worse in ns/op, or increased at all in allocs/op (the
// matcher's zero-allocation warm path is a hard property — one stray
// allocation per op is a bug, not noise). Benchmarks present on only one
// side are ignored, so adding or deleting a benchmark never trips the
// gate. The nightly workflow runs it on HEAD vs HEAD~1 output from the
// same runner, alongside benchstat's human-readable delta.
//
// -eff-filter selects series for the *parallel-efficiency* gate: for
// every matched benchmark that both runs measured at -cpu 1 and -cpu
// N>1, the derived efficiency ns1/(N·nsN) may not drop more than
// -max-eff-drop relative to the baseline run. Efficiency-gated series
// are deliberately separate from the raw ns/op gate (-filter): the
// absolute multi-proc numbers on a small shared CI runner are noise,
// but the old-vs-new scaling *shape* on the same runner is signal.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nutriprofile/internal/benchfmt"
)

func main() {
	oldPath := flag.String("old", "", "baseline bench output file")
	newPath := flag.String("new", "", "candidate bench output file")
	maxSlowdown := flag.Float64("max-slowdown", 0.10, "allowed fractional ns/op increase (0.10 = +10%)")
	filter := flag.String("filter", "", "comma-separated substrings; gate only benchmarks whose name contains any")
	effFilter := flag.String("eff-filter", "", "comma-separated substrings; parallel-efficiency-gate benchmarks whose name contains any (empty disables)")
	maxEffDrop := flag.Float64("max-eff-drop", 0.10, "allowed fractional parallel-efficiency drop (0.10 = -10%)")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: both -old and -new are required")
		os.Exit(2)
	}

	oldEntries := load(*oldPath, *filter)
	newEntries := load(*newPath, *filter)
	fmt.Printf("benchgate: comparing %d baseline vs %d candidate benchmarks (limit +%.0f%% ns/op, 0 extra allocs/op)\n",
		len(oldEntries), len(newEntries), 100**maxSlowdown)

	regs := benchfmt.Gate(oldEntries, newEntries, *maxSlowdown)
	if *effFilter != "" {
		oldEff := load(*oldPath, *effFilter)
		newEff := load(*newPath, *effFilter)
		for _, eff := range benchfmt.ParallelEfficiency(newEff) {
			fmt.Printf("benchgate: efficiency %s-%d = %.3f\n", eff.Name, eff.Procs, eff.Value)
		}
		regs = append(regs, benchfmt.GateEfficiency(oldEff, newEff, *maxEffDrop)...)
	}
	if len(regs) == 0 {
		fmt.Println("benchgate: PASS")
		return
	}
	for _, r := range regs {
		fmt.Printf("benchgate: REGRESSION %s\n", r)
	}
	os.Exit(1)
}

func load(path, filter string) []benchfmt.Entry {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()
	entries, err := benchfmt.Parse(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
		os.Exit(2)
	}
	if filter != "" {
		entries = benchfmt.Filter(entries, strings.Split(filter, ",")...)
	}
	return entries
}
