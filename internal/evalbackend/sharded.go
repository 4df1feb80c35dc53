package evalbackend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/pipe"
	"repro/internal/seq"
)

// ErrShardFailed wraps shard call-level failures when the sharded
// composite degrades them to per-task errors. Use errors.Is on a merged
// Result.Err to distinguish a failed shard from a task the shard itself
// abandoned (e.g. netcluster.ErrTaskAbandoned, which passes through
// unchanged). With work-stealing dispatch a single failed shard no
// longer produces these at all — its in-flight batch is requeued and
// the surviving shards absorb it; ErrShardFailed appears only when
// every shard has failed and candidates are left stranded.
var ErrShardFailed = errors.New("evalbackend: shard failed")

// ServiceTimeEstimator is implemented by backends that track their own
// per-candidate service-time estimate (a netcluster-backed shard
// exposes the master's EWMA over worker round-trips). The sharded
// composite prefers this over its own externally measured EWMA when
// sizing the next batch a shard pulls.
type ServiceTimeEstimator interface {
	// EWMAServiceTime returns the estimated wall time to score one
	// candidate, or 0 when no estimate exists yet.
	EWMAServiceTime() time.Duration
}

// stealEWMAAlpha weights the composite's externally measured
// per-candidate service time: high enough to track a shard that
// suddenly degrades within a few batches, low enough not to thrash on
// one noisy measurement.
const stealEWMAAlpha = 0.4

// ShardStats is one shard's cumulative dispatch accounting, exposed so
// operators can see a degraded shard instead of inferring it from
// aggregate counters.
type ShardStats struct {
	// Dispatched counts candidates this shard scored successfully.
	Dispatched int64
	// Failed counts candidates whose batch died with this shard's
	// call-level failure (they were requeued to survivors, or
	// synthesized as ErrShardFailed when none remained).
	Failed int64
	// StolenBatches counts batches this shard pulled beyond its first
	// of each round — work that migrated here from slower shards.
	StolenBatches int64
	// EWMAServiceNS is the composite's measured per-candidate service
	// time estimate for this shard, in nanoseconds (0 before any data).
	EWMAServiceNS int64
}

// shardCounters is the atomic backing store for one shard's ShardStats.
type shardCounters struct {
	dispatched, failed, stolen, ewmaNS atomic.Int64
}

// Sharded fans a generation out across multiple backends — the paper's
// multi-rack configuration (§3.2), where each rack runs its own
// master/worker tree. Dispatch is work-stealing: shards pull batches
// from a shared per-round queue instead of receiving fixed slices, so a
// slow or degraded shard naturally takes less work and the stragglers
// migrate to faster shards. Batch size adapts to each shard's speed
// share, estimated from per-candidate EWMA service times (the shard's
// own ServiceTimeEstimator when it has one, the composite's external
// measurement otherwise); each pull takes half the shard's fair share
// of the remaining queue, leaving the rest to be stolen if the shard
// slows down mid-round.
//
// Because PIPE scoring is deterministic and per-candidate, and results
// merge back by input index, the merged round is bit-identical to a
// single backend evaluating the whole batch regardless of shard count
// or which shard scored what.
//
// A shard whose call fails (master closed, worker pool lost) is marked
// dead for the round and its in-flight batch is requeued to the
// survivors; only when every shard is dead do the stranded candidates
// degrade to per-task ErrShardFailed results. Context cancellation is
// the exception: it aborts the round with a call-level error, like
// every other backend.
type Sharded struct {
	shards []Backend
	per    []shardCounters
	c      counters
}

// NewSharded composes shards into one Backend. Each shard must be a
// distinct backend instance: each shard goroutine issues a serial
// stream of batch calls, but distinct shards run concurrently, and
// e.g. a netcluster.Master serializes rounds (ErrBusy), so sharing one
// master between shards would fail.
func NewSharded(shards ...Backend) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("evalbackend: sharded composite needs at least one shard")
	}
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("evalbackend: shard %d is nil", i)
		}
	}
	return &Sharded{shards: shards, per: make([]shardCounters, len(shards))}, nil
}

// NewShardedPools composes n in-process pools for one problem, each
// sized by cfg, into a work-stealing Sharded backend.
func NewShardedPools(engine *pipe.Engine, targetID int, nonTargetIDs []int, cfg cluster.Config, n int) (*Sharded, error) {
	shards := make([]Backend, n)
	for i := range shards {
		pb, err := NewPool(engine, targetID, nonTargetIDs, cfg)
		if err != nil {
			return nil, err
		}
		shards[i] = pb
	}
	return NewSharded(shards...)
}

// stealRound is the shared state of one EvaluateAll round.
type stealRound struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []int  // candidate indices awaiting dispatch
	dead     []bool // shards failed this round
	live     int
	inflight int // batches leased to shards, may yet be requeued
	pulls    []int
	firstErr error
}

// EvaluateAll drains seqs through the shards' shared work queue and
// merges the results back into input order.
func (s *Sharded) EvaluateAll(ctx context.Context, seqs []seq.Sequence) ([]cluster.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(s.shards)
	rs := &stealRound{
		queue: make([]int, len(seqs)),
		dead:  make([]bool, n),
		live:  n,
		pulls: make([]int, n),
	}
	rs.cond = sync.NewCond(&rs.mu)
	for i := range rs.queue {
		rs.queue[i] = i
	}
	merged := make([]cluster.Result, len(seqs))
	var wg sync.WaitGroup
	for k := range s.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s.runShard(ctx, rs, k, seqs, merged)
		}(k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Cancellation aborts the round; don't dress it up as shard
		// degradation.
		return nil, err
	}
	// Whatever is still queued outlived every shard: degrade to
	// per-task errors so the caller's round survives.
	for _, i := range rs.queue {
		merged[i] = cluster.Result{Index: i, Err: fmt.Errorf("%w: %v", ErrShardFailed, rs.firstErr)}
	}
	s.c.abandoned.Add(int64(len(rs.queue)))
	return merged, nil
}

// runShard is one shard's pull-evaluate-merge loop for a round.
func (s *Sharded) runShard(ctx context.Context, rs *stealRound, k int, seqs []seq.Sequence, merged []cluster.Result) {
	for {
		batch := s.take(rs, k)
		if len(batch) == 0 {
			return
		}
		sub := make([]seq.Sequence, len(batch))
		for j, i := range batch {
			sub[j] = seqs[i]
		}
		start := time.Now()
		res, err := s.shards[k].EvaluateAll(ctx, sub)
		if err == nil && len(res) != len(sub) {
			err = fmt.Errorf("evalbackend: shard %d returned %d results for %d candidates", k, len(res), len(sub))
		}
		if err != nil {
			s.per[k].failed.Add(int64(len(batch)))
			rs.mu.Lock()
			if !rs.dead[k] {
				rs.dead[k] = true
				rs.live--
			}
			if rs.firstErr == nil {
				rs.firstErr = fmt.Errorf("shard %d: %v", k, err)
			}
			if ctx.Err() == nil {
				// The batch was only leased; hand it back for the
				// surviving shards to steal.
				rs.queue = append(rs.queue, batch...)
			}
			rs.inflight--
			rs.cond.Broadcast()
			rs.mu.Unlock()
			return
		}
		s.observeService(k, time.Since(start), len(batch))
		s.per[k].dispatched.Add(int64(len(batch)))
		// Distinct indices: no two batches overlap, so the merge is
		// race-free without holding the round lock.
		for j, i := range batch {
			r := res[j]
			r.Index = i
			merged[i] = r
		}
		rs.mu.Lock()
		rs.inflight--
		rs.cond.Broadcast()
		rs.mu.Unlock()
	}
}

// take leases the next batch for shard k, blocking while the queue is
// empty but another shard's in-flight batch could still be requeued.
// It returns nil when the round has no more work for this shard.
func (s *Sharded) take(rs *stealRound, k int) []int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for {
		if len(rs.queue) > 0 {
			size := s.batchSize(rs, k)
			batch := make([]int, size)
			copy(batch, rs.queue[:size])
			rs.queue = rs.queue[size:]
			rs.inflight++
			rs.pulls[k]++
			if rs.pulls[k] > 1 {
				s.per[k].stolen.Add(1)
				s.c.stolenBatches.Add(1)
			}
			return batch
		}
		if rs.inflight == 0 || rs.live == 0 {
			return nil
		}
		rs.cond.Wait()
	}
}

// batchSize picks how much of the remaining queue shard k should lease:
// half its speed-weighted fair share, so a shard that degrades after
// pulling still leaves most of the round stealable. Called with rs.mu
// held.
func (s *Sharded) batchSize(rs *stealRound, k int) int {
	remaining := len(rs.queue)
	if rs.live <= 1 {
		// No one left to steal from; drain the queue in one pull.
		return remaining
	}
	speeds := make([]float64, len(s.shards))
	var sum float64
	unknown := 0
	for j := range s.shards {
		if rs.dead[j] {
			continue
		}
		if ns := s.serviceEstimateNS(j); ns > 0 {
			speeds[j] = 1 / ns
			sum += speeds[j]
		} else {
			unknown++
		}
	}
	if unknown > 0 {
		// Before data exists a shard gets the mean known speed (equal
		// split when nothing is known yet).
		mean := 1.0
		if known := rs.live - unknown; known > 0 {
			mean = sum / float64(known)
		}
		for j := range s.shards {
			if rs.dead[j] || speeds[j] > 0 {
				continue
			}
			speeds[j] = mean
			sum += mean
		}
	}
	size := int(math.Ceil(float64(remaining) * (speeds[k] / sum) / 2))
	if size < 1 {
		size = 1
	}
	if size > remaining {
		size = remaining
	}
	return size
}

// serviceEstimateNS is shard k's per-candidate service-time estimate in
// nanoseconds: the shard's own estimator when it has one, otherwise the
// composite's measured EWMA, otherwise 0 (unknown).
func (s *Sharded) serviceEstimateNS(k int) float64 {
	if est, ok := s.shards[k].(ServiceTimeEstimator); ok {
		if d := est.EWMAServiceTime(); d > 0 {
			return float64(d)
		}
	}
	if ns := s.per[k].ewmaNS.Load(); ns > 0 {
		return float64(ns)
	}
	return 0
}

// observeService folds one batch's wall time into shard k's measured
// per-candidate EWMA.
func (s *Sharded) observeService(k int, wall time.Duration, n int) {
	per := float64(wall) / float64(n)
	prev := s.per[k].ewmaNS.Load()
	if prev <= 0 {
		s.per[k].ewmaNS.Store(int64(per))
		return
	}
	s.per[k].ewmaNS.Store(int64(stealEWMAAlpha*per + (1-stealEWMAAlpha)*float64(prev)))
}

// ShardStats returns each shard's cumulative dispatch accounting,
// indexed like the NewSharded arguments.
func (s *Sharded) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.per))
	for k := range s.per {
		out[k] = ShardStats{
			Dispatched:    s.per[k].dispatched.Load(),
			Failed:        s.per[k].failed.Load(),
			StolenBatches: s.per[k].stolen.Load(),
			EWMAServiceNS: s.per[k].ewmaNS.Load(),
		}
	}
	return out
}

// Stats sums the children's counters with the composite's own
// (synthesized shard-failure abandonments and stolen batches).
func (s *Sharded) Stats() Stats {
	st := s.c.snapshot()
	for _, sh := range s.shards {
		st = st.Add(sh.Stats())
	}
	return st
}

// Close closes every shard, returning the first error.
func (s *Sharded) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
