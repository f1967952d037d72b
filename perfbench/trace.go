package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Names are "<layer>.<operation>";
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory, safe for concurrent use. Spans are written
// out only when the traced run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noParent int32 = -1

// rerunSpan names the span wrapping a layer call the replay repeats to
// attribute the time of an opaque call that made it (see adopt): the layer
// span moves under the opaque call, the rerun span keeps the repeat's own
// time, so the enclosing span's self time stays the replay's glue.
const rerunSpan = "replay.rerun"

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return t.spans[id].dur()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int32, fn func(id int32)) time.Duration {
	id := t.begin(name, parent)
	fn(id)
	return t.end(id)
}

// adopt re-parents span child under parent. The replays use it where a
// layer call is repeated outside an opaque parent call that made it, so the
// parent's self time excludes it.
func (t *tracer) adopt(child, parent int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[child].Parent = parent
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the time its direct children cover. Children that overlap,
// such as exhibit jobs running on several goroutines, cover the union of
// their intervals, so a parent's self time never goes negative.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	kids := make(map[int32][]span)
	for _, s := range spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for parent, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered time.Duration
		lo, hi := ks[0].Start, ks[0].End
		for _, k := range ks[1:] {
			if k.Start > hi {
				covered += time.Duration(hi - lo)
				lo = k.Start
			}
			hi = max(hi, k.End)
		}
		covered += time.Duration(hi - lo)
		self[spans[parent].Name] -= covered
	}
	return self
}

// layerOf maps a span name to its layer, the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
