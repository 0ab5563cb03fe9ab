package benchfmt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: nutriprofile/internal/match
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMatchSeed    	 1000000	      1075 ns/op	       0 B/op	       0 allocs/op
BenchmarkMatchName-8  	  703645	      1484 ns/op	       0 B/op	       0 allocs/op
BenchmarkRank         	  869994	      1423 ns/op	       0 B/op	       0 allocs/op
BenchmarkEstimateRecipes/sequential-8         	     100	  11169870 ns/op	     44706 phrases/s	  269691 allocs/op
BenchmarkNoMem 	  500	   2000 ns/op
PASS
ok  	nutriprofile/internal/match	7.419s
`

func TestParse(t *testing.T) {
	entries, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("parsed %d entries, want 5", len(entries))
	}
	e := entries[1]
	if e.Name != "BenchmarkMatchName" || e.Procs != 8 || e.Runs != 703645 ||
		e.NsPerOp != 1484 || e.BytesPerOp != 0 || e.AllocsPerOp != 0 {
		t.Errorf("MatchName parsed wrong: %+v", e)
	}
	if b := entries[3]; b.Name != "BenchmarkEstimateRecipes/sequential" ||
		b.Extra["phrases/s"] != 44706 || b.AllocsPerOp != 269691 {
		t.Errorf("batch entry parsed wrong: %+v", b)
	}
	if nm := entries[4]; nm.AllocsPerOp != -1 || nm.BytesPerOp != -1 {
		t.Errorf("missing -benchmem should leave -1 sentinels: %+v", nm)
	}
}

func TestFilter(t *testing.T) {
	entries, _ := Parse(strings.NewReader(sample))
	got := Filter(entries, "MatchName", "Rank")
	if len(got) != 2 || got[0].Name != "BenchmarkMatchName" || got[1].Name != "BenchmarkRank" {
		t.Fatalf("Filter = %+v", got)
	}
	if all := Filter(entries); len(all) != len(entries) {
		t.Fatal("no-substring Filter should keep everything")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	entries, _ := Parse(strings.NewReader(sample))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, entries); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != len(entries) {
		t.Fatalf("round-trip lost entries: %d vs %d", len(rep.Benchmarks), len(entries))
	}
	for i := 1; i < len(rep.Benchmarks); i++ {
		if rep.Benchmarks[i-1].Name > rep.Benchmarks[i].Name {
			t.Fatal("JSON output not sorted by name")
		}
	}
}

// TestGateProcs pins the -cpu 1,4 behavior: the same benchmark name at
// different GOMAXPROCS is two independent series. A 4-proc result must
// gate only against the 4-proc baseline, and a violation names the
// series with its -N suffix.
func TestGateProcs(t *testing.T) {
	old := []Entry{
		{Name: "BenchmarkEstimateRecipes/parallel_cached", Procs: 1, NsPerOp: 4000, AllocsPerOp: 10},
		{Name: "BenchmarkEstimateRecipes/parallel_cached", Procs: 4, NsPerOp: 1000, AllocsPerOp: 10},
	}
	// The 4-proc series regresses; the 1-proc series is fine even though
	// its ns/op sits far above the 4-proc baseline.
	regs := Gate(old, []Entry{
		{Name: "BenchmarkEstimateRecipes/parallel_cached", Procs: 1, NsPerOp: 4100, AllocsPerOp: 10},
		{Name: "BenchmarkEstimateRecipes/parallel_cached", Procs: 4, NsPerOp: 2000, AllocsPerOp: 10},
	}, 0.10)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions (%v), want 1", len(regs), regs)
	}
	if regs[0].Name != "BenchmarkEstimateRecipes/parallel_cached-4" {
		t.Errorf("regression name = %q, want the -4 series", regs[0].Name)
	}
	// A series present on only one side is ignored, whatever its procs.
	if regs := Gate(old, []Entry{
		{Name: "BenchmarkEstimateRecipes/parallel_cached", Procs: 8, NsPerOp: 9999, AllocsPerOp: 99},
	}, 0.10); len(regs) != 0 {
		t.Errorf("unmatched procs should not gate: %v", regs)
	}
}

// TestWriteJSONProcsOrder pins the artifact ordering: same name sorts
// by procs so a -cpu 1,4 run diffs cleanly between nightlies.
func TestWriteJSONProcsOrder(t *testing.T) {
	var buf bytes.Buffer
	err := WriteJSON(&buf, []Entry{
		{Name: "BenchmarkB", Procs: 4, NsPerOp: 1},
		{Name: "BenchmarkA", Procs: 4, NsPerOp: 1},
		{Name: "BenchmarkB", Procs: 1, NsPerOp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	got := make([][2]any, len(rep.Benchmarks))
	for i, e := range rep.Benchmarks {
		got[i] = [2]any{e.Name, e.Procs}
	}
	want := [][2]any{{"BenchmarkA", 4}, {"BenchmarkB", 1}, {"BenchmarkB", 4}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestGate(t *testing.T) {
	old := []Entry{
		{Name: "BenchmarkRank", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "BenchmarkMatchName", NsPerOp: 2000, AllocsPerOp: 0},
		{Name: "BenchmarkRemoved", NsPerOp: 10, AllocsPerOp: 0},
	}
	cases := []struct {
		name string
		new  []Entry
		want int
	}{
		{"identical", old[:2], 0},
		{"within 10%", []Entry{{Name: "BenchmarkRank", NsPerOp: 1099, AllocsPerOp: 0}}, 0},
		{"ns regression", []Entry{{Name: "BenchmarkRank", NsPerOp: 1101, AllocsPerOp: 0}}, 1},
		{"alloc regression", []Entry{{Name: "BenchmarkRank", NsPerOp: 900, AllocsPerOp: 1}}, 1},
		{"both regress", []Entry{{Name: "BenchmarkRank", NsPerOp: 3000, AllocsPerOp: 5}}, 2},
		{"new benchmark ignored", []Entry{{Name: "BenchmarkBrandNew", NsPerOp: 1, AllocsPerOp: 99}}, 0},
		{"faster is fine", []Entry{{Name: "BenchmarkRank", NsPerOp: 100, AllocsPerOp: 0}}, 0},
		{"unmeasured allocs skip the alloc gate",
			[]Entry{{Name: "BenchmarkNoMem", NsPerOp: 1, AllocsPerOp: 5}}, 0},
	}
	oldPlusNoMem := append(old, Entry{Name: "BenchmarkNoMem", NsPerOp: 1, AllocsPerOp: -1})
	for _, tc := range cases {
		regs := Gate(oldPlusNoMem, tc.new, 0.10)
		if len(regs) != tc.want {
			t.Errorf("%s: %d regressions (%v), want %d", tc.name, len(regs), regs, tc.want)
		}
	}
}
