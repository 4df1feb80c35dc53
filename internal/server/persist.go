package server

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/obs"
)

// persistConfig wires the durable multi-replica job mode: workers claim
// jobs from a shared jobstore under a lease instead of an in-memory
// channel, renew while running, resume orphans from their journal
// checkpoints, and release running jobs back to the store on drain.
type persistConfig struct {
	store     *jobstore.Store
	replicaID string
	// lease is how long a claim lasts without renewal; renewal runs at
	// lease/3. A replica killed hard stops renewing and its jobs become
	// claimable after one lease.
	lease time.Duration
	// poll is the idle claim-retry interval.
	poll time.Duration
	// weights is the tenant fair-share weight map (tenantRegistry).
	weights map[string]float64
	// resolve re-validates a stored raw DesignRequest into a runnable
	// spec (Server.specFromRequest). Resolution is deterministic given
	// the same proteome, so every replica derives the same spec.
	resolve func(json.RawMessage) (designSpec, error)
}

// storeState maps a local JobState to its jobstore terminal state.
func storeState(s JobState) jobstore.State {
	switch s {
	case JobDone:
		return jobstore.Done
	case JobCancelled:
		return jobstore.Cancelled
	default:
		return jobstore.Failed
	}
}

// localState maps a jobstore state to the API's JobState.
func localState(s jobstore.State) JobState {
	switch s {
	case jobstore.Pending:
		return JobQueued
	case jobstore.Running:
		return JobRunning
	case jobstore.Done:
		return JobDone
	case jobstore.Cancelled:
		return JobCancelled
	default:
		return JobFailed
	}
}

// persistWorker claims and runs jobs from the shared store until drain.
func (s *jobStore) persistWorker() {
	defer s.wg.Done()
	pc := s.persist
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		rec, recovered, ok, err := pc.store.Claim(pc.replicaID, pc.lease, pc.weights)
		if err != nil {
			s.obs.logger.Warn("job claim failed", "replica", pc.replicaID, "err", err)
			ok = false
		}
		if !ok {
			select {
			case <-s.stop:
				return
			case <-time.After(pc.poll):
			}
			continue
		}
		s.runPersistent(rec, recovered)
	}
}

// dropJob removes a job from the local live mirror (lease lost or
// released: the shared store owns the truth, lookups fall through to
// it).
func (s *jobStore) dropJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// runPersistent executes one claimed job end to end: local mirror
// registration, lease renewal, checkpoint resume for recovered orphans,
// and the terminal transition back into the store. Outcomes:
//
//   - completed/failed/user-cancelled → store.Finish with the rendered
//     job JSON as the durable result;
//   - drain → final checkpoint (written by RunContext on cancellation)
//     then store.Release: a peer replica resumes bit-identically;
//   - lease lost (renewal raced a recovery after a stall) → the local
//     run is abandoned and its result discarded: the re-attaching
//     replica owns the job now.
func (s *jobStore) runPersistent(rec jobstore.Record, recovered bool) {
	pc := s.persist
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &job{
		id:      rec.ID,
		tenant:  rec.Tenant,
		cancel:  cancel,
		ctx:     ctx,
		done:    make(chan struct{}),
		state:   JobRunning,
		created: time.UnixMilli(rec.CreatedMS),
		started: time.Now(),
	}
	jobLogger := s.obs.logger.With("job", j.id, "tenant", j.tenant, "replica", pc.replicaID)

	s.mu.Lock()
	s.jobs[j.id] = j
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	finishLocal := func(state JobState, res *core.Result, err error) {
		j.mu.Lock()
		j.state = state
		j.finished = time.Now()
		j.result = res
		if err != nil {
			j.errMessage = err.Error()
		}
		j.mu.Unlock()
		j.markDone()
	}
	// finishBoth records the terminal outcome locally and durably; the
	// rendered job JSON becomes the store record's result payload, so
	// any replica can serve the finished job without having run it.
	finishBoth := func(state JobState, res *core.Result, runErr error) {
		finishLocal(state, res, runErr)
		payload, err := json.Marshal(renderJobJSON(j.snapshot(), true))
		if err != nil {
			payload = nil
		}
		msg := ""
		if runErr != nil {
			msg = runErr.Error()
		}
		if _, err := pc.store.Finish(j.id, pc.replicaID, storeState(state), payload, msg); err != nil {
			jobLogger.Warn("store finish failed", "state", state, "err", err)
		}
		if runErr != nil {
			jobLogger.Warn("job finished", "state", state, "err", runErr)
		} else {
			jobLogger.Info("job finished", "state", state)
		}
	}

	spec, err := pc.resolve(rec.Spec)
	if err != nil {
		finishBoth(JobFailed, nil, err)
		return
	}
	// The API snapshots the job concurrently; publish the resolved spec
	// under the job lock.
	j.mu.Lock()
	j.spec = spec
	j.mu.Unlock()
	if recovered {
		s.metrics.jobsRecovered.Add(1)
		jobLogger.Info("orphaned job re-attached", "attempt", rec.Attempts, "recoveries", rec.Recovered)
	}

	// Lease renewal at lease/3: a lost lease abandons the local run; a
	// cancel request from any replica's API surfaces here.
	var leaseLost atomic.Bool
	renewStop := make(chan struct{})
	defer close(renewStop)
	go func() {
		ticker := time.NewTicker(pc.lease / 3)
		defer ticker.Stop()
		for {
			select {
			case <-renewStop:
				return
			case <-ticker.C:
				r, err := pc.store.Renew(j.id, pc.replicaID, pc.lease)
				switch {
				case errors.Is(err, jobstore.ErrLeaseLost):
					leaseLost.Store(true)
					s.metrics.leasesLost.Add(1)
					jobLogger.Warn("job lease lost, abandoning local run")
					cancel()
					return
				case err != nil:
					jobLogger.Warn("lease renewal failed", "err", err)
				case r.CancelRequested:
					j.mu.Lock()
					j.userCancel = true
					j.mu.Unlock()
					cancel()
				}
			}
		}
	}()

	designer, cleanup, err := s.prepare(j, jobLogger)
	if err != nil {
		finishBoth(JobFailed, nil, err)
		return
	}

	// Any job with a checkpoint in the shared journal resumes from it —
	// this covers crash-recovered orphans AND drain-released handoffs
	// (which come back as plain Pending records, not lease expiries).
	// Resume is bit-identical to an uninterrupted run; a job interrupted
	// before its first checkpoint restarts from generation 0, and since
	// the GA is deterministic in (seed, generation, slot), the re-run
	// journal duplicates the pre-interruption records exactly.
	var res core.Result
	var runErr error
	resumed := false
	{
		dir := filepath.Join(s.obs.journalDir, j.id)
		cp, cpErr := obs.LoadCheckpoint(dir)
		switch {
		case cpErr == nil:
			jobLogger.Info("resuming job from checkpoint", "generation", cp.Generation)
			res, runErr = designer.ResumeContext(ctx, cp)
			resumed = true
		case errors.Is(cpErr, obs.ErrNoCheckpoint):
			if rec.Attempts > 1 {
				jobLogger.Info("re-attached job has no checkpoint, restarting from generation 0")
			}
		default:
			cleanup()
			finishBoth(JobFailed, nil, cpErr)
			return
		}
	}
	if !resumed {
		jobLogger.Info("job started",
			"population", j.spec.GA.PopulationSize, "non_targets", len(j.spec.NonTargetIDs))
		res, runErr = designer.RunContext(ctx)
	}
	cleanup()

	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	j.mu.Lock()
	userCancel := j.userCancel
	j.mu.Unlock()

	switch {
	case runErr == nil:
		finishBoth(JobDone, &res, nil)
	case errors.Is(runErr, context.Canceled):
		switch {
		case leaseLost.Load():
			// Another replica re-attached the job; our result is stale.
			finishLocal(JobFailed, nil, errors.New("lease lost: job re-attached by another replica"))
			s.dropJob(j.id)
		case draining && !userCancel:
			// Graceful handoff: RunContext wrote a final checkpoint, a
			// peer resumes from it.
			if _, err := pc.store.Release(j.id, pc.replicaID); err != nil {
				jobLogger.Warn("drain release failed", "err", err)
			} else {
				s.metrics.jobsReleased.Add(1)
				jobLogger.Info("job released for peer pickup (drain)")
			}
			finishLocal(JobQueued, nil, nil)
			s.dropJob(j.id)
		default:
			// User cancellation keeps the partial result, as in-memory.
			finishBoth(JobCancelled, &res, nil)
		}
	default:
		finishBoth(JobFailed, nil, runErr)
	}
}
