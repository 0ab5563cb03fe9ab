// Command nutribench is the repository's end-to-end and per-layer
// benchmark. It boots the built nutriserve as a child process on a baked
// image, drives it from this one process over at most two connections,
// checks every response, and prints the run's metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.02, "unit": "s"}, ...}}
//
// With -workload all, each workload runs in turn and prints its own
// result line. With -trace 0 the metrics are the end-to-end ones; with
// -trace 1 they are the per-layer ones: counter deltas over the same
// end-to-end run, plus an in-process replay of the workload's inputs
// that times calls into each package. README.md maps every metric to its
// layer and to the workload meant to move it. run.sh builds both
// binaries and runs this.
//
//	nutribench -root . -server .bench_build/bin/nutriserve -workload bulk-paper -seed 1 -seconds 40 -trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/usda/bake"
)

// workloads lists the workload names in the order README.md gives them.
var workloads = []string{"bulk-paper", "bulk-longtail-sr26"}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	root, server string
	workload     string
	seed         int64
	seconds      int
	trace        bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.root, "root", ".", "repository checkout the binaries were built from")
	flag.StringVar(&cfg.server, "server", "", "nutriserve binary to benchmark")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all to run each in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.IntVar(&cfg.seconds, "seconds", 40, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.trace = trace == 1

	if cfg.server == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("usage: nutribench -server BIN -workload NAME -seed N -seconds S -trace 0|1")
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, cfg.workload) {
		fatalf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloads, ", "))
	}

	correct := true
	for _, w := range names {
		cfg.workload = w
		res, err := run(cfg)
		if err != nil {
			fatalf("%s: %v", w, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("encoding result: %v", err)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nutribench: "+format+"\n", args...)
	os.Exit(2)
}

// report prints one metric line for people, ahead of the result line.
func report(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("nutribench: %-34s %14.6g %s%s\n", name, v, unit, note)
}

func run(cfg config) (*result, error) {
	t0 := time.Now()
	in, err := genInputs(cfg.workload, cfg.seed, fullSize)
	if err != nil {
		return nil, err
	}
	if err := checkShape(cfg.workload, in); err != nil {
		return nil, err
	}
	printHost(cfg, in)
	fmt.Fprintf(os.Stderr, "nutribench: %s inputs ready in %.1fs: %d recipes, digest %s\n",
		cfg.workload, time.Since(t0).Seconds(), len(in.bulk), in.digest)

	dir, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	image := filepath.Join(dir, "db.img")
	if err := bake.WriteFile(image, in.db, nil); err != nil {
		return nil, fmt.Errorf("baking image: %w", err)
	}

	// Collect the generator's garbage now, not during the window.
	runtime.GC()
	e, err := measure(cfg, in, image)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}

	// The exact oracle: kept responses against an in-process estimator
	// over the same image with nutriserve's default options. Cache size,
	// policy, coalescing and pruning never change results.
	ld, err := bake.LoadFile(image)
	if err != nil {
		return nil, err
	}
	est, err := core.NewWithIndex(ld.DB, nil, core.Options{CacheSize: defaultCacheEntries}, ld.Index, image)
	if err != nil {
		return nil, err
	}
	checked, verr := e.oracle.verify(est)
	if verr != nil {
		e.oracle.fail("exact check: %v", verr)
	}
	for _, f := range e.oracle.failures {
		fmt.Fprintf(os.Stderr, "nutribench: FAIL %s\n", f)
	}
	res.Correct = len(e.oracle.failures) == 0 && e.failed == 0 && checked > 0
	fmt.Printf("nutribench: oracle: %d responses re-estimated in process, %d failures, %d/%d operations failed\n",
		checked, len(e.oracle.failures), e.failed, e.attempted)
	fmt.Printf("nutribench: host CPU steal during the window: %.1f%% (a disturbed run when high)\n", 100*e.stealFrac)

	for _, m := range e.endToEnd() {
		report(m.name, m.value, m.unit, m.note)
		if !cfg.trace && m.gated {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	if cfg.trace {
		layers := counterMetrics(e.deltas, e.recipesServed)
		layers["loadgen.lag_p99_ms"] = ms(summarize(e.lags).p99)
		if err := replay(in, image, e, layers); err != nil {
			return nil, err
		}
		if len(layers) != len(layerMetrics) {
			return nil, fmt.Errorf("replay produced %d per-layer metrics, layerMetrics lists %d", len(layers), len(layerMetrics))
		}
		for _, m := range layerMetrics {
			v, ok := layers[m.name]
			if !ok {
				return nil, fmt.Errorf("replay produced no %s", m.name)
			}
			note := ""
			if v == absent {
				note = "absent: the server no longer exports its counters"
			}
			report(m.name, v, m.unit, note)
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	fmt.Fprintf(os.Stderr, "nutribench: %s done in %.1fs\n", cfg.workload, time.Since(t0).Seconds())
	return res, nil
}

// checkShape guards the inputs' own shape, never the server's behaviour:
// the long-tail workload must name several times more distinct
// ingredients than the default cache holds, or it would stop measuring
// the matcher.
func checkShape(workload string, in *inputs) error {
	if workload == "bulk-longtail-sr26" && in.distinctNames < longtailMinDistinct {
		return fmt.Errorf("input shape: %d distinct ingredient names, want at least %d (4x the %d-entry default cache)",
			in.distinctNames, longtailMinDistinct, defaultCacheEntries)
	}
	return nil
}

// layerMetrics names every per-layer metric with its unit, in
// BENCHMARK.json's order; README.md says what each measures.
var layerMetrics = []struct{ name, unit string }{
	{"pipeline.tokenize_ns", "ns"},
	{"pipeline.tag_lemma_ns", "ns"},
	{"ner.extract_ns", "ns"},
	{"match.rank_ns", "ns"},
	{"match.calls", "count"},
	{"match.stage_share", "ratio"},
	{"units.quantity_ns", "ns"},
	{"nutrition.aggregate_ns", "ns"},
	{"core.uncached_ns", "ns"},
	{"core.stage_residual_frac", "ratio"},
	{"core.hot_ns", "ns"},
	{"core.batch_recipe_ns", "ns"},
	{"core.install_ms", "ms"},
	{"core.l1_hit_ratio", "ratio"},
	{"memo.get_hit_ns", "ns"},
	{"memo.put_ns", "ns"},
	{"memo.phrase_hit_ratio", "ratio"},
	{"memo.match_hit_ratio", "ratio"},
	{"memo.admit_ratio", "ratio"},
	{"flight.coalesced_frac", "ratio"},
	{"match.postings_avoided_per_rank", "count"},
	{"server.handler_ns.estimate", "ns"},
	{"server.handler_ns.recipe", "ns"},
	{"server.handler_ns.batch_line", "ns"},
	{"server.self_ns.estimate", "ns"},
	{"server.self_ns.recipe", "ns"},
	{"server.net_us", "us"},
	{"server.shed_frac", "ratio"},
	{"runtime.alloc_bytes_per_recipe", "B"},
	{"bake.load_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.clock_ns", "ns"},
	{"loadgen.lag_p99_ms", "ms"},
	{"replay.phrases", "count"},
	{"replay.recipes", "count"},
}

// printHost prints the host block: what a reader needs to know before
// comparing two results, which is only ever done on one host.
func printHost(cfg config, in *inputs) {
	host := map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(cfg.root),
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"input_digest":  in.digest,
	}
	b, _ := json.Marshal(host) // a map of strings and numbers always encodes
	fmt.Printf("nutribench: host %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into this binary, present when it
// was built inside a git work tree; NUTRIBENCH_COMMIT overrides it for
// checkouts that carry no history.
func commit() string {
	if c := os.Getenv("NUTRIBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout,
// identifying the code measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// median of a non-empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
