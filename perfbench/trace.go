package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Spans of one operation share Op; Parent
// is the ID of the enclosing span (0 for an operation's root).
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A disabled tracer
// records nothing; its methods still return usable IDs so callers need no
// branches. Not safe for concurrent use: every workload records from one
// goroutine.
type tracer struct {
	on    bool
	t0    time.Time
	next  int64
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// add records a span that ran from start to end and returns its ID.
func (t *tracer) add(op, parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, op, parent, name, start, end)
	return id
}

// record stores a span under an ID taken earlier from newID, for a parent
// whose children are recorded before it ends.
func (t *tracer) record(id, op, parent int64, name string, start, end time.Time) {
	if t.on {
		t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
			Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	}
}

// newID returns a fresh span or operation ID.
func (t *tracer) newID() int64 {
	t.next++
	return t.next
}

// selfTimes maps each span ID to its duration minus the part of that
// interval its children cover (children may overlap each other).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName collects the self times of every span called name, limited
// to the operations in ops when ops is non-nil.
func selfByName(spans []span, name string, ops map[int64]bool) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name && (ops == nil || ops[s.Op]) {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, file)
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
