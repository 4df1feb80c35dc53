package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/evalbackend"
	"repro/internal/seq"
)

// span is one timed interval of a traced run. Parent is the ID of the
// span that caused it (0 for the run's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Nested spans opened
// with begin/end come from one goroutine (the design loop), so the open
// ones form a stack and each new span's parent is the innermost open
// one. A nil *tracer records nothing, which is how untraced runs use it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.spans = append(t.spans, span{ID: 0, Parent: -1, Name: "run"})
	t.open = []int{0}
	return t
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.open[len(t.open)-1], Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// add records an already finished span under the root, for work timed
// on other goroutines (the load generator's requests).
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// finish closes the root span.
func (t *tracer) finish() {
	t.spans[0].End = int64(time.Since(t.t0))
}

// totals returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it its children cover.
func (t *tracer) totals() (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	children := map[int][]span{}
	for _, s := range t.spans[1:] {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range t.spans {
		total[s.Name] += s.dur()
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return total, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, hi int64
	hi = parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return time.Duration(sum)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedBackend is a timing wrapper the traced run puts at a boundary of
// the evaluation chain: every EvaluateAll call becomes a span, and the
// calls and candidates it saw are counted.
type timedBackend struct {
	evalbackend.Backend
	tr         *tracer
	name       string
	calls      int
	candidates int
}

func (b *timedBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	id := b.tr.begin(b.name)
	res, err := b.Backend.EvaluateAll(ctx, seqs)
	b.tr.end(id)
	b.calls++
	b.candidates += len(seqs)
	return res, err
}
