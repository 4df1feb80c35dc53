// Package search factors InSiPS' generation loop behind a pluggable
// Searcher interface: propose a batch of candidate sequences, have the
// core Designer evaluate them through its evalbackend chain, then
// select the survivors that seed the next batch. The original genetic
// algorithm (package ga) is the first Searcher — a thin adapter with a
// bit-identical trajectory — and three more strategies ship on the same
// seam:
//
//   - beam: reward-guided beam search over the PIPE kernel
//     (ProtInvTree-style, with elite re-expansion);
//   - anneal: simulated annealing over independent Metropolis chains
//     with a geometric temperature schedule;
//   - landscape: fitness-landscape analysis — neutral-network random
//     walks plus a local-optima census — rather than pure optimization.
//
// Every strategy shares the Designer's machinery: the evaluation
// backend stack (fitness cache, surrogate, sharding, netcluster), the
// run journal, and checkpoint/resume. Determinism follows the ga
// package's discipline: every random draw derives from (Seed,
// generation, slot), so strategies keep no cross-generation RNG state
// and a checkpointed batch resumes bit-identically. Strategy-private
// state that must survive a restart (annealing chains, landscape
// walkers) rides the checkpoint as an opaque State() blob.
package search

import (
	"fmt"
	"math/rand"

	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/seq"
)

// Strategy names, as spelled in -strategy flags, job specs, journal
// records and checkpoints.
const (
	StrategyGA        = "ga"
	StrategyBeam      = "beam"
	StrategyAnneal    = "anneal"
	StrategyLandscape = "landscape"
)

// Strategies lists the registered strategy names in presentation order.
func Strategies() []string {
	return []string{StrategyGA, StrategyBeam, StrategyAnneal, StrategyLandscape}
}

// Config selects and tunes a search strategy. The zero value is the
// genetic algorithm, keeping every pre-existing caller bit-identical.
type Config struct {
	// Strategy is one of Strategies(); empty means StrategyGA.
	Strategy  string
	Beam      BeamConfig
	Anneal    AnnealConfig
	Landscape LandscapeConfig
	// Islands, when Count > 1, runs Count islands of the strategy as
	// one composite Searcher with ring migration (see IslandConfig).
	Islands IslandConfig
}

// Name returns the configured strategy name with the empty-string
// default resolved to "ga".
func (c Config) Name() string {
	if c.Strategy == "" {
		return StrategyGA
	}
	return c.Strategy
}

// Validate reports whether the selected strategy's knobs (with package
// defaults applied) are usable, without constructing a Searcher — the
// fail-fast check for API request validation.
func (c Config) Validate() error {
	if _, err := c.Islands.withDefaults(); err != nil {
		return err
	}
	switch c.Name() {
	case StrategyGA:
		return nil
	case StrategyBeam:
		return c.Beam.withDefaults().validate()
	case StrategyAnneal:
		return c.Anneal.withDefaults().validate()
	case StrategyLandscape:
		return c.Landscape.withDefaults().validate()
	default:
		return fmt.Errorf("search: unknown strategy %q (have %v)", c.Strategy, Strategies())
	}
}

// Searcher is one search strategy driving the design loop. The core
// Designer owns the loop: it calls Step once per generation, and Step
// calls back into the supplied ga.Evaluator exactly once with the
// strategy's current candidate batch. Implementations are not safe for
// concurrent use, mirroring ga.Engine.
type Searcher interface {
	// Strategy returns the strategy's registered name. It is stamped
	// into journal records and checkpoints; resume fails fast when a
	// checkpoint's strategy tag does not match the configured one.
	Strategy() string

	// PopulationSize is the fixed number of candidates submitted per
	// Step — the checkpoint's population size and the right-hand side
	// of the journal's candidate conservation law.
	PopulationSize() int

	// Generation returns the number of completed (evaluated) steps.
	Generation() int

	// Population returns the current, not-yet-evaluated candidate
	// batch. The slice is owned by the searcher; treat it as read-only.
	Population() []ga.Individual

	// BestEver returns the best individual observed so far and the
	// generation it appeared in.
	BestEver() (ga.Individual, int)

	// InitPopulation creates the strategy's initial candidate batch
	// deterministically from the seed.
	InitPopulation()

	// SetPopulation replaces the current batch (warm start, resume).
	// The batch length must equal PopulationSize.
	SetPopulation(seqs []seq.Sequence) error

	// ParentHints maps a candidate's residues to the residues of the
	// retained parent it was derived from, enabling the evaluation
	// pool's incremental (delta) preprocessing. It must return a
	// non-nil map for the current batch — an empty map still announces
	// generation-aware evaluation — keyed consistently with seqs.
	ParentHints(seqs []seq.Sequence) map[string]string

	// Step evaluates the current batch via the evaluator the searcher
	// was constructed with, selects survivors, builds the next batch
	// and returns the evaluated batch's statistics.
	Step() ga.Stats

	// Counters reports the strategy's per-generation journal counters
	// for the step most recently completed. The GA returns the zero
	// value.
	Counters() obs.StrategyCounters

	// State serializes strategy-private state that the candidate batch
	// alone cannot reconstruct (annealing chains, landscape walkers).
	// Strategies whose batch is self-describing return (nil, nil).
	State() ([]byte, error)

	// Restore rewinds the searcher to a checkpointed state: generation
	// completed steps, the unevaluated batch they produced, the
	// best-ever individual, and the State() blob captured alongside.
	Restore(generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int, state []byte) error

	// SetStageObserver installs (or removes, with nil) the per-stage
	// timing callback feeding the obs histograms.
	SetStageObserver(fn ga.StageObserver)
}

// New builds the configured Searcher over the shared GA parameters
// (population/batch sizing, sequence length, composition, seed) and the
// evaluation callback. An unknown strategy name fails fast.
func New(cfg Config, params ga.Params, eval ga.Evaluator) (Searcher, error) {
	if eval == nil {
		return nil, fmt.Errorf("search: nil evaluator")
	}
	if cfg.Islands.Enabled() {
		return newIslands(cfg, params, eval)
	}
	switch cfg.Name() {
	case StrategyGA:
		return NewGA(params, eval)
	case StrategyBeam:
		return NewBeam(cfg.Beam, params, eval)
	case StrategyAnneal:
		return NewAnneal(cfg.Anneal, params, eval)
	case StrategyLandscape:
		return NewLandscape(cfg.Landscape, params, eval)
	default:
		return nil, fmt.Errorf("search: unknown strategy %q (have %v)", cfg.Strategy, Strategies())
	}
}

// slotRNG derives the deterministic random stream for one construction
// slot of one generation, optionally salted by a stream tag so distinct
// decision kinds (move proposal vs. Metropolis acceptance vs. restart)
// within the same slot stay decorrelated. It mirrors ga.Engine's
// SplitMix64-style derivation: no cross-generation RNG state exists, so
// restored runs draw identical streams.
func slotRNG(seed int64, gen, slot int, stream uint64) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(gen)*0xBF58476D1CE4E5B9 +
		uint64(slot)*0x94D049BB133111EB + stream*0xD6E8FEB86659FD93 + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// batch is the bookkeeping the beam, anneal and landscape strategies
// share: the pending candidate batch, the residues each slot was
// derived from (its delta-preprocessing hint parent, "" for none), the
// completed-step count, the best-ever individual and the last step's
// counters.
type batch struct {
	size       int
	pop        []ga.Individual
	hintParent []string
	generation int
	bestEver   ga.Individual
	bestGen    int
	observe    ga.StageObserver
	counters   obs.StrategyCounters
}

func (b *batch) PopulationSize() int { return b.size }

func (b *batch) Generation() int { return b.generation }

func (b *batch) Population() []ga.Individual { return b.pop }

func (b *batch) BestEver() (ga.Individual, int) { return b.bestEver, b.bestGen }

func (b *batch) Counters() obs.StrategyCounters { return b.counters }

func (b *batch) SetStageObserver(fn ga.StageObserver) { b.observe = fn }

// initRandom fills the batch with random sequences, slot i drawn from
// the (seed, 0, i, stream) stream and named <prefix>0s<i>.
func (b *batch) initRandom(prefix string, params ga.Params, sampler *seq.Sampler, stream uint64) {
	b.pop = make([]ga.Individual, b.size)
	for i := range b.pop {
		rng := slotRNG(params.Seed, 0, i, stream)
		b.pop[i] = ga.Individual{
			Seq: seq.RandomFrom(rng, fmt.Sprintf("%s0s%04d", prefix, i), params.SeqLen, sampler),
		}
	}
	b.hintParent = nil
	b.generation = 0
}

func (b *batch) SetPopulation(seqs []seq.Sequence) error {
	if len(seqs) != b.size {
		return fmt.Errorf("search: got %d sequences, batch size is %d", len(seqs), b.size)
	}
	b.pop = make([]ga.Individual, len(seqs))
	for i, s := range seqs {
		b.pop[i] = ga.Individual{Seq: s}
	}
	b.hintParent = nil
	return nil
}

func (b *batch) ParentHints(seqs []seq.Sequence) map[string]string {
	hints := make(map[string]string)
	for i, parent := range b.hintParent {
		if i < len(seqs) && parent != "" {
			hints[seqs[i].Residues()] = parent
		}
	}
	return hints
}

// evaluate scores the pending batch and returns its statistics,
// updating the best-ever.
func (b *batch) evaluate(eval ga.Evaluator) ga.Stats {
	fits := eval.EvaluateAll(batchSeqs(b.pop))
	for i := range b.pop {
		b.pop[i].Fitness = fits[i]
	}
	return batchStats(b.generation, b.pop, &b.bestEver, &b.bestGen)
}

// restore rewinds the shared bookkeeping to a checkpoint of strategy
// name; the strategy restores its private state around it.
func (b *batch) restore(name string, generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int) error {
	if generation <= 0 {
		return fmt.Errorf("search: cannot restore %s to generation %d (nothing completed)", name, generation)
	}
	if bestGen < 0 || bestGen >= generation {
		return fmt.Errorf("search: best-ever generation %d outside completed range [0,%d)", bestGen, generation)
	}
	if err := b.SetPopulation(pop); err != nil {
		return err
	}
	b.generation, b.bestEver, b.bestGen = generation, bestEver, bestGen
	return nil
}

// batchSeqs extracts the residue sequences of a candidate batch.
func batchSeqs(pop []ga.Individual) []seq.Sequence {
	out := make([]seq.Sequence, len(pop))
	for i := range pop {
		out[i] = pop[i].Seq
	}
	return out
}

// batchStats computes the shared per-step statistics (best, mean,
// best-ever bookkeeping) from an evaluated batch, mirroring
// ga.Engine.Step's semantics exactly.
func batchStats(gen int, pop []ga.Individual, bestEver *ga.Individual, bestGen *int) ga.Stats {
	total := 0.0
	best := 0
	for i := range pop {
		total += pop[i].Fitness
		if pop[i].Fitness > pop[best].Fitness {
			best = i
		}
	}
	st := ga.Stats{
		Generation: gen,
		Best:       pop[best].Fitness,
		Mean:       total / float64(len(pop)),
	}
	if pop[best].Fitness > bestEver.Fitness || bestEver.Seq.Len() == 0 {
		*bestEver = pop[best]
		*bestGen = gen
		st.NewBestFound = true
	}
	st.BestEver = bestEver.Fitness
	st.BestEverSeq = bestEver.Seq
	st.BestEverGen = *bestGen
	return st
}
