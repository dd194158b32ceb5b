package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Spans of one request share Parent with the request's
// root span; N carries the bytes or items the call handled.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use: the serve phase records spans from many request
// goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id, attributing n bytes or items to it.
func (t *tracer) end(id int32, n int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// do records fn as one span and returns its duration.
func (t *tracer) do(name string, n int64, fn func()) time.Duration {
	id := t.begin(name, -1)
	fn()
	t.end(id, n)
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// sum totals the durations and N of every closed span named name.
func (t *tracer) sum(name string) (total time.Duration, n int64, count int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			total += time.Duration(s.End - s.Start)
			n += s.N
			count++
		}
	}
	return total, n, count
}

// durations returns the duration in milliseconds of every closed span
// named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write saves the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
