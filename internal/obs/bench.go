package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// BenchSchema is the current BENCH_*.json schema version. Readers reject
// files with a larger version so an old gate never silently misreads a
// newer format.
const BenchSchema = 1

// BenchEntry is one benchmark result. Names use go-test convention with
// the "Benchmark" prefix and "-GOMAXPROCS" suffix stripped (see
// NormalizeBenchName), so entries written by ffcbench and entries parsed
// from `go test -bench` output compare directly.
type BenchEntry struct {
	Name     string           `json:"name"`
	NsPerOp  float64          `json:"ns_per_op"`
	Ops      int64            `json:"ops,omitempty"`     // iterations the measurement averaged over
	Cases    int64            `json:"cases,omitempty"`   // fault cases enumerated per op, when meaningful
	Speedup  float64          `json:"speedup,omitempty"` // serial/parallel ratio, when meaningful
	Counters map[string]int64 `json:"counters,omitempty"`
	// Tags mark entries the regression gate must treat specially. The only
	// recognized tag today is BenchTagDegraded: the run had solver-fault
	// injection or a solve deadline active, so its timings measure the
	// degraded control loop, not the solver. Additive: absent in older
	// files, so the schema version stays 1.
	Tags []string `json:"tags,omitempty"`
}

// BenchTagDegraded marks entries measured under solver-fault injection or
// a per-solve deadline; CompareBench excludes them from gating.
const BenchTagDegraded = "degraded"

// Tagged reports whether the entry carries the given tag.
func (e *BenchEntry) Tagged(tag string) bool {
	for _, t := range e.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// BenchFile is the on-disk BENCH_*.json format: the repo's perf
// trajectory and the input to the CI regression gate. Deliberately free
// of timestamps and hostnames so that two runs over the same state are
// byte-identical (WriteBench sorts entries and map keys).
type BenchFile struct {
	Schema     int              `json:"schema"`
	Label      string           `json:"label"` // e.g. "snet", "ci", "baseline"
	Benchmarks []BenchEntry     `json:"benchmarks"`
	Counters   map[string]int64 `json:"counters,omitempty"` // global solver counters for the whole run
}

// Sort orders benchmarks by name, making output deterministic.
func (f *BenchFile) Sort() {
	sort.Slice(f.Benchmarks, func(i, j int) bool { return f.Benchmarks[i].Name < f.Benchmarks[j].Name })
}

// Find returns the entry with the given name, or nil.
func (f *BenchFile) Find(name string) *BenchEntry {
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i]
		}
	}
	return nil
}

// WriteBench writes f as stable, indented JSON (sorted benchmarks;
// encoding/json already sorts map keys).
func WriteBench(w io.Writer, f *BenchFile) error {
	f.Sort()
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteBenchFile writes f to path via WriteBench.
func WriteBenchFile(path string, f *BenchFile) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBench(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ParseBench decodes a BENCH_*.json document and validates its schema.
func ParseBench(data []byte) (*BenchFile, error) {
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if f.Schema < 1 || f.Schema > BenchSchema {
		return nil, fmt.Errorf("unsupported bench schema %d (want 1..%d)", f.Schema, BenchSchema)
	}
	return &f, nil
}

// ReadBenchFile reads and decodes one BENCH_*.json file.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := ParseBench(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// NormalizeBenchName maps a go-test benchmark name to BENCH form: the
// "Benchmark" prefix and the trailing "-<GOMAXPROCS>" go-test appends
// are stripped, sub-benchmark paths are kept.
// "BenchmarkVerifyDataPlaneSNet/serial-8" → "VerifyDataPlaneSNet/serial".
func NormalizeBenchName(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// ParseGoBench parses `go test -bench` output into a BenchFile. Names
// are normalized; when a benchmark appears more than once (-count > 1,
// or several packages) the minimum ns/op is kept — the least-noisy
// estimate, and the generous side for the caller's regression gate.
func ParseGoBench(r io.Reader, label string) (*BenchFile, error) {
	f := &BenchFile{Schema: BenchSchema, Label: label}
	byName := map[string]int{} // name → index in f.Benchmarks
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		ops, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		var ns float64
		found := false
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == "ns/op" {
				if ns, err = strconv.ParseFloat(fields[i], 64); err == nil {
					found = true
				}
				break
			}
		}
		if !found {
			continue
		}
		name := NormalizeBenchName(fields[0])
		if i, ok := byName[name]; ok {
			if ns < f.Benchmarks[i].NsPerOp {
				f.Benchmarks[i].NsPerOp = ns
				f.Benchmarks[i].Ops = ops
			}
			continue
		}
		byName[name] = len(f.Benchmarks)
		f.Benchmarks = append(f.Benchmarks, BenchEntry{Name: name, NsPerOp: ns, Ops: ops})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	f.Sort()
	return f, nil
}

// Regression is one benchmark whose current ns/op exceeds the baseline
// by more than the gate's allowed ratio.
type Regression struct {
	Name       string
	BaselineNs float64
	CurrentNs  float64
	Ratio      float64
}

// CompareBench checks current against the union of baseline files.
// The baseline for a name is the MAX ns/op across all files that carry
// it (committed baselines come from different machines; the gate should
// only fire when we regress past the slowest recorded one). Entries in
// current with no baseline are returned in unmatched, never gated.
// Entries tagged BenchTagDegraded — on either side — are excluded from
// gating entirely: degraded-mode timings measure the fallback path, not
// solver performance. Such current entries are returned in ignored, and
// such baseline entries contribute nothing to the reference. Baseline
// names no current entry carries are returned in missing (sorted): a
// renamed or deleted benchmark loses its gate, and the caller should say
// so. A regression is current > maxRatio × baseline.
func CompareBench(baselines []*BenchFile, current *BenchFile, maxRatio float64) (regs []Regression, matched, unmatched, ignored, missing []string) {
	base := map[string]float64{}
	for _, b := range baselines {
		if b == nil {
			continue
		}
		for _, e := range b.Benchmarks {
			if e.Tagged(BenchTagDegraded) {
				continue
			}
			if e.NsPerOp > base[e.Name] {
				base[e.Name] = e.NsPerOp
			}
		}
	}
	ran := map[string]bool{}
	for i := range current.Benchmarks {
		e := &current.Benchmarks[i]
		ran[e.Name] = true
		if e.Tagged(BenchTagDegraded) {
			ignored = append(ignored, e.Name)
			continue
		}
		ref, ok := base[e.Name]
		if !ok || ref <= 0 {
			unmatched = append(unmatched, e.Name)
			continue
		}
		matched = append(matched, e.Name)
		if e.NsPerOp > maxRatio*ref {
			regs = append(regs, Regression{
				Name:       e.Name,
				BaselineNs: ref,
				CurrentNs:  e.NsPerOp,
				Ratio:      e.NsPerOp / ref,
			})
		}
	}
	for name, ref := range base {
		if ref > 0 && !ran[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs, matched, unmatched, ignored, missing
}
