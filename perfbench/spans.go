package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one operation share Op; Parent links a
// call to the span that made it (0 for an operation's root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) us() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs share the traced code path at
// the cost of a nil check. One tracer serves one goroutine; concurrent
// clients each take their own from fork and the run merges them.
type tracer struct {
	origin time.Time
	ids    *atomic.Int64
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), ids: new(atomic.Int64)}
}

// fork returns a tracer for another goroutine: same clock and id space,
// its own span buffer.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{origin: t.origin, ids: t.ids}
}

// join appends the spans other recorded.
func (t *tracer) join(other *tracer) {
	if t != nil && other != nil {
		t.spans = append(t.spans, other.spans...)
	}
}

// start opens a span and returns its handle (-1 when untraced).
func (t *tracer) start(op string, parent int64, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: us(time.Since(t.origin)),
	})
	return len(t.spans) - 1
}

// id returns the span id behind a handle, for use as a parent.
func (t *tracer) id(h int) int64 {
	if t == nil || h < 0 {
		return 0
	}
	return t.spans[h].ID
}

// end closes the span behind a handle.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].End = us(time.Since(t.origin))
}

// durations returns the durations, in microseconds, of every span with
// the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.us())
		}
	}
	return out
}

// write stores the spans as JSON lines in dir/file, ordered by start.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
