package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// at the boundary it calls through. Start and End are nanoseconds since the
// tracer was made. Spans of one request share Req; Parent is the span that
// caused this one (0 = none).
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBufCap bounds one goroutine's span buffer; past it spans are counted
// as dropped, not stored, so a long traced run cannot grow without limit.
const spanBufCap = 1 << 17

// tracer hands out one span buffer per goroutine (no lock on the record
// path) and writes all of them out when the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint32

	mu   sync.Mutex
	bufs []*spanBuf
}

type spanBuf struct {
	tr      *tracer
	spans   []span
	dropped uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// buf returns a fresh buffer for the calling goroutine; a nil tracer gives a
// nil buffer, on which record is a no-op.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t, spans: make([]span, 0, 1024)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// record stores one finished span and returns its id.
func (b *spanBuf) record(name string, parent uint32, req uint64, start, end time.Time) uint32 {
	if b == nil {
		return 0
	}
	if len(b.spans) >= spanBufCap {
		b.dropped++
		return 0
	}
	id := b.tr.nextID.Add(1)
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(b.tr.t0).Nanoseconds(), End: end.Sub(b.tr.t0).Nanoseconds(),
	})
	return id
}

// write dumps every recorded span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	var total, dropped uint64
	for _, b := range t.bufs {
		total += uint64(len(b.spans))
		dropped += b.dropped
	}
	fmt.Fprintf(w, "{\"spans_recorded\":%d,\"spans_dropped\":%d,\"spans\":[\n", total, dropped)
	enc := json.NewEncoder(w)
	first := true
	for _, b := range t.bufs {
		for i := range b.spans {
			if !first {
				w.WriteString(",")
			}
			first = false
			if err := enc.Encode(&b.spans[i]); err != nil {
				f.Close()
				return fmt.Errorf("trace: %w", err)
			}
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
