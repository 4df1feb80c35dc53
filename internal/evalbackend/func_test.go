package evalbackend

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/seq"
)

// FuncBackend adapts a bare evaluation function: the tests' fake leaf
// backend.
type FuncBackend struct {
	fn func(seqs []seq.Sequence) ([]cluster.Result, error)
	c  counters
}

// Func wraps fn as a Backend. The function must return one Result per
// candidate; a wrong-length return surfaces as a call-level error
// before any caller indexes into it.
func Func(fn func(seqs []seq.Sequence) ([]cluster.Result, error)) *FuncBackend {
	return &FuncBackend{fn: fn}
}

// EvaluateAll implements Backend. Cancellation is observed at call
// entry; the wrapped function has no context to thread it through.
func (b *FuncBackend) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, err := b.fn(seqs)
	if err != nil {
		b.c.rounds.Add(1)
		return nil, err
	}
	if len(results) != len(seqs) {
		b.c.rounds.Add(1)
		return nil, fmt.Errorf("evalbackend: evaluate func returned %d results for %d candidates", len(results), len(seqs))
	}
	b.c.observeResults(results)
	return results, nil
}

// Stats implements Backend.
func (b *FuncBackend) Stats() Stats { return b.c.snapshot() }

// Close implements Backend.
func (b *FuncBackend) Close() error { return nil }
