// Command benchgate is the CI perf-regression gate. It parses `go test
// -bench` output, re-emits it as a machine-readable BENCH_*.json (the
// repo's stable benchmark format, see internal/obs), and compares the
// results against committed BENCH_*.json baselines:
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/core ./internal/lp |
//	    benchgate -out BENCH_ci.json
//
// The gate fails (exit 1) when any benchmark's ns/op exceeds -max-ratio
// times its baseline. The baseline per benchmark is the MAX across every
// matching file (baselines recorded on different machines must not trip
// the gate on machine variance); benchmarks with no baseline entry are
// reported as new and never gated, and entries tagged "degraded"
// (recorded under solver-fault injection or a solve deadline, see
// ffcbench -inject-solver) are ignored on both sides. Baseline entries no
// benchmark in this run produced are listed as missing, so a renamed or
// deleted benchmark visibly loses its gate; they never fail the gate,
// because CI runs only a subset of the benchmarks. With -record the
// compare step is skipped — use it to (re)generate a baseline file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ffc/internal/obs"
)

func main() {
	var (
		in       = flag.String("in", "-", "go-test bench output to parse ('-' = stdin)")
		out      = flag.String("out", "BENCH_ci.json", "BENCH json to write for this run ('' = don't write)")
		label    = flag.String("label", "ci", "label recorded in the output file")
		baseline = flag.String("baseline", "BENCH_*.json", "glob of committed baseline files (the -out file is excluded)")
		maxRatio = flag.Float64("max-ratio", 2.0, "fail when current ns/op exceeds this multiple of the baseline")
		record   = flag.Bool("record", false, "write -out and skip the regression comparison")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		src = f
	}
	cur, err := obs.ParseGoBench(src, *label)
	if err != nil {
		fatalf("parsing bench output: %v", err)
	}
	if len(cur.Benchmarks) == 0 {
		fatalf("no benchmark results found in %s", *in)
	}
	if *out != "" {
		if err := obs.WriteBenchFile(*out, cur); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(cur.Benchmarks))
	}
	if *record {
		return
	}

	paths, err := filepath.Glob(*baseline)
	if err != nil {
		fatalf("bad -baseline glob: %v", err)
	}
	var bases []*obs.BenchFile
	for _, p := range paths {
		if sameFile(p, *out) {
			continue
		}
		b, err := obs.ReadBenchFile(p)
		if err != nil {
			fatalf("baseline %s: %v", p, err)
		}
		fmt.Printf("baseline: %s (label %q, %d benchmarks)\n", p, b.Label, len(b.Benchmarks))
		bases = append(bases, b)
	}
	if len(bases) == 0 {
		fmt.Printf("no baseline files match %q; nothing to gate against\n", *baseline)
		return
	}

	regs, matched, unmatched, ignored, missing := obs.CompareBench(bases, cur, *maxRatio)
	fmt.Printf("gate: %d benchmarks matched a baseline, %d new, %d degraded (ignored), %d baseline entries not run\n",
		len(matched), len(unmatched), len(ignored), len(missing))
	for _, n := range unmatched {
		fmt.Printf("  new (not gated): %s\n", n)
	}
	for _, n := range ignored {
		fmt.Printf("  degraded (not gated): %s\n", n)
	}
	for _, n := range missing {
		fmt.Printf("  missing (not run): %s\n", n)
	}
	if len(regs) == 0 {
		fmt.Printf("OK: no benchmark exceeded %.1fx its baseline\n", *maxRatio)
		return
	}
	fmt.Printf("FAIL: %d benchmark(s) regressed beyond %.1fx:\n", len(regs), *maxRatio)
	for _, r := range regs {
		fmt.Printf("  %-40s baseline %.0f ns/op, now %.0f ns/op (%.2fx)\n",
			r.Name, r.BaselineNs, r.CurrentNs, r.Ratio)
	}
	os.Exit(1)
}

// sameFile reports whether two paths name the same file lexically (enough
// for excluding the gate's own output from the baseline set).
func sameFile(a, b string) bool {
	if b == "" {
		return false
	}
	ca, err1 := filepath.Abs(a)
	cb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && ca == cb
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
