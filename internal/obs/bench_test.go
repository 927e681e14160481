package obs

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_bench.json from the fixed-seed fixture")

// fixedBenchFile builds a BenchFile from a fixed seed, deliberately
// inserting entries out of order so the writer's sorting is exercised.
func fixedBenchFile() *BenchFile {
	rng := rand.New(rand.NewSource(42))
	f := &BenchFile{Schema: BenchSchema, Label: "golden", Counters: map[string]int64{
		"lp.solves": 12,
		"lp.iters":  int64(rng.Intn(1000) + 500),
	}}
	f.Benchmarks = []BenchEntry{
		{Name: "VerifyDataPlaneSNet/serial", NsPerOp: 714031886, Ops: 3, Cases: 3917},
		{Name: "SimplexMediumLP", NsPerOp: float64(rng.Intn(100000) + 100000), Ops: 10},
		{Name: "VerifyDataPlaneSNet/parallel", NsPerOp: 182007153, Ops: 3, Cases: 3917, Speedup: 3.92,
			Counters: map[string]int64{"workers": 8}},
	}
	return f
}

// TestBenchGoldenRoundTrip is the exporter's golden-file test: emit →
// compare against testdata/golden_bench.json byte-for-byte → parse →
// compare structurally → re-emit and check byte stability across runs.
func TestBenchGoldenRoundTrip(t *testing.T) {
	golden := filepath.Join("testdata", "golden_bench.json")
	var buf bytes.Buffer
	if err := WriteBench(&buf, fixedBenchFile()); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("emitted BENCH json differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	parsed, err := ParseBench(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Label != "golden" || len(parsed.Benchmarks) != 3 {
		t.Fatalf("round-trip lost data: %+v", parsed)
	}
	if e := parsed.Find("VerifyDataPlaneSNet/parallel"); e == nil || e.Speedup != 3.92 || e.Counters["workers"] != 8 {
		t.Fatalf("round-trip entry mismatch: %+v", e)
	}
	if parsed.Find("nope") != nil {
		t.Fatal("Find on a missing name must return nil")
	}

	// Byte stability: a second emission of the re-built fixed state (and
	// of the parsed copy) must be identical.
	var again, reparsed bytes.Buffer
	if err := WriteBench(&again, fixedBenchFile()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two emissions with a fixed seed differ")
	}
	if err := WriteBench(&reparsed, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), reparsed.Bytes()) {
		t.Fatal("emit → parse → emit is not byte-stable")
	}
}

func TestParseBenchRejectsBadSchema(t *testing.T) {
	if _, err := ParseBench([]byte(`{"schema": 99, "label": "x", "benchmarks": []}`)); err == nil {
		t.Fatal("schema 99 must be rejected")
	}
	if _, err := ParseBench([]byte(`{"label": "x"}`)); err == nil {
		t.Fatal("schema 0 must be rejected")
	}
	if _, err := ParseBench([]byte(`not json`)); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestNormalizeBenchName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkVerifyDataPlaneSNet/serial-8": "VerifyDataPlaneSNet/serial",
		"BenchmarkSimplexPFIRep-16":             "SimplexPFIRep",
		"BenchmarkSolveFFCSortNet":              "SolveFFCSortNet",
		"VerifyDataPlaneSNet/parallel":          "VerifyDataPlaneSNet/parallel",
		"BenchmarkFig12-quick-4":                "Fig12-quick", // only a numeric tail is stripped as GOMAXPROCS
	}
	for in, want := range cases {
		if got := NormalizeBenchName(in); got != want {
			t.Errorf("NormalizeBenchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: ffc/internal/core
cpu: Intel(R) Xeon(R) CPU @ 2.70GHz
BenchmarkVerifyDataPlaneSNet/serial-8         	       3	714031886 ns/op
BenchmarkVerifyDataPlaneSNet/parallel-8       	       3	182007153 ns/op	       5 B/op	       0 allocs/op
BenchmarkVerifyDataPlaneSNet/serial-8         	       3	693532564 ns/op
not a benchmark line
BenchmarkBroken-8	three	bad ns/op
PASS
`
	f, err := ParseGoBench(strings.NewReader(out), "ci")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	ser := f.Find("VerifyDataPlaneSNet/serial")
	if ser == nil || ser.NsPerOp != 693532564 {
		t.Fatalf("duplicate entries must keep min ns/op: %+v", ser)
	}
	par := f.Find("VerifyDataPlaneSNet/parallel")
	if par == nil || par.NsPerOp != 182007153 || par.Ops != 3 {
		t.Fatalf("parallel entry: %+v", par)
	}
}

func TestCompareBench(t *testing.T) {
	base1 := &BenchFile{Schema: 1, Label: "a", Benchmarks: []BenchEntry{
		{Name: "Fast", NsPerOp: 100},
		{Name: "Slow", NsPerOp: 1000},
	}}
	base2 := &BenchFile{Schema: 1, Label: "b", Benchmarks: []BenchEntry{
		{Name: "Fast", NsPerOp: 150}, // max across files wins as the reference
	}}
	cur := &BenchFile{Schema: 1, Label: "ci", Benchmarks: []BenchEntry{
		{Name: "Fast", NsPerOp: 290},  // 290 < 2×150 → ok
		{Name: "Slow", NsPerOp: 2500}, // 2500 > 2×1000 → regression
		{Name: "New", NsPerOp: 42},    // no baseline → unmatched, never gated
	}}
	regs, matched, unmatched, ignored, missing := CompareBench([]*BenchFile{base1, nil, base2}, cur, 2.0)
	if len(matched) != 2 || len(unmatched) != 1 || unmatched[0] != "New" || len(ignored) != 0 || len(missing) != 0 {
		t.Fatalf("matched=%v unmatched=%v ignored=%v missing=%v", matched, unmatched, ignored, missing)
	}
	if len(regs) != 1 || regs[0].Name != "Slow" || regs[0].Ratio != 2.5 || regs[0].BaselineNs != 1000 {
		t.Fatalf("regressions: %+v", regs)
	}
	// Tighten the gate and Fast regresses too; order is worst-first.
	regs, _, _, _, _ = CompareBench([]*BenchFile{base1, base2}, cur, 1.5)
	if len(regs) != 2 || regs[0].Name != "Slow" || regs[1].Name != "Fast" {
		t.Fatalf("regressions (1.5x gate): %+v", regs)
	}
}

// TestCompareBenchReportsMissingBaselines: a baseline entry no current
// benchmark carries (renamed, deleted, or simply not run) is listed, in
// name order, and never fails the gate; a degraded baseline entry gates
// nothing and so is not listed.
func TestCompareBenchReportsMissingBaselines(t *testing.T) {
	base := &BenchFile{Schema: 1, Label: "a", Benchmarks: []BenchEntry{
		{Name: "Kept", NsPerOp: 100},
		{Name: "Renamed", NsPerOp: 100},
		{Name: "Deleted", NsPerOp: 100},
		{Name: "Flaky", NsPerOp: 100, Tags: []string{BenchTagDegraded}},
	}}
	cur := &BenchFile{Schema: 1, Label: "ci", Benchmarks: []BenchEntry{
		{Name: "Kept", NsPerOp: 110},
		{Name: "RenamedV2", NsPerOp: 100},
	}}
	regs, matched, unmatched, _, missing := CompareBench([]*BenchFile{base}, cur, 2.0)
	if len(regs) != 0 {
		t.Fatalf("missing baselines must not fail the gate: %+v", regs)
	}
	if len(matched) != 1 || len(unmatched) != 1 || unmatched[0] != "RenamedV2" {
		t.Fatalf("matched=%v unmatched=%v", matched, unmatched)
	}
	if want := []string{"Deleted", "Renamed"}; !reflect.DeepEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
}

func TestCompareBenchIgnoresDegradedEntries(t *testing.T) {
	base := &BenchFile{Schema: 1, Label: "a", Benchmarks: []BenchEntry{
		{Name: "Solve", NsPerOp: 1000},
		// A degraded baseline must not weaken the reference for others.
		{Name: "Other", NsPerOp: 5000, Tags: []string{BenchTagDegraded}},
		{Name: "Other", NsPerOp: 100},
	}}
	cur := &BenchFile{Schema: 1, Label: "ci", Benchmarks: []BenchEntry{
		// 10× over baseline, but the run was fault-injected: never gated.
		{Name: "Solve", NsPerOp: 10000, Tags: []string{BenchTagDegraded}},
		{Name: "Other", NsPerOp: 150},
	}}
	regs, matched, unmatched, ignored, missing := CompareBench([]*BenchFile{base}, cur, 2.0)
	if len(regs) != 0 {
		t.Fatalf("degraded entry gated: %+v", regs)
	}
	if len(ignored) != 1 || ignored[0] != "Solve" {
		t.Fatalf("ignored = %v, want [Solve]", ignored)
	}
	if len(matched) != 1 || matched[0] != "Other" || len(unmatched) != 0 || len(missing) != 0 {
		t.Fatalf("matched=%v unmatched=%v missing=%v", matched, unmatched, missing)
	}
	// Degraded baseline excluded: a clean current entry gates against the
	// clean 100, not the degraded 5000.
	cur2 := &BenchFile{Schema: 1, Label: "ci", Benchmarks: []BenchEntry{
		{Name: "Other", NsPerOp: 900},
	}}
	regs, _, _, _, _ = CompareBench([]*BenchFile{base}, cur2, 2.0)
	if len(regs) != 1 || regs[0].BaselineNs != 100 {
		t.Fatalf("degraded baseline leaked into the reference: %+v", regs)
	}
}
