package search

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/seq"
)

// IslandConfig sizes the island model, the paper's multi-rack plan
// (Section 3.2): "set one master process per rack and sync between
// masters after each round of the genetic algorithm". Each island is an
// independent sub-searcher of the configured strategy; every
// SyncInterval generations the islands pass their best Migrants
// candidates around a ring.
type IslandConfig struct {
	// Count is the number of islands; 0 or 1 runs one population.
	Count int
	// SyncInterval is the number of generations between syncs. The
	// paper syncs after each round, so the default is 1.
	SyncInterval int
	// Migrants is how many of an island's best candidates replace the
	// last slots of its ring successor's next batch. Default 2.
	Migrants int
}

// Enabled reports whether the configuration asks for islands.
func (c IslandConfig) Enabled() bool { return c.Count > 1 }

func (c IslandConfig) withDefaults() (IslandConfig, error) {
	if c.Count < 0 || c.SyncInterval < 0 || c.Migrants < 0 {
		return c, fmt.Errorf("search: negative island setting %+v", c)
	}
	if c.SyncInterval == 0 {
		c.SyncInterval = 1
	}
	if c.Migrants == 0 {
		c.Migrants = 2
	}
	return c, nil
}

// islandSearcher is the island model as a Searcher composite. Each Step
// concatenates the islands' batches (island 0 first) into one
// evaluation call, hands every sub-searcher its slice of the fitness
// values, and at sync boundaries migrates elites around the ring. The
// sub-searchers never see the evaluator, so islands share the
// Designer's backend chain, journal and checkpoints.
type islandSearcher struct {
	cfg  IslandConfig
	subs []Searcher
	eval ga.Evaluator
	size int // candidates per island

	fits      []float64       // the current step's fitness values, concatenated
	evaluated []ga.Individual // the current step's batch with its fitness

	generation int
	bestEver   ga.Individual
	bestGen    int
	counters   obs.StrategyCounters
}

// newIslands builds one sub-searcher of the configured strategy per
// island, island k seeded params.Seed + k*7919.
func newIslands(cfg Config, params ga.Params, eval ga.Evaluator) (Searcher, error) {
	icfg, err := cfg.Islands.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg.Islands = IslandConfig{}
	s := &islandSearcher{cfg: icfg, eval: eval}
	for k := 0; k < icfg.Count; k++ {
		p := params
		p.Seed += int64(k) * 7919
		sub, err := New(cfg, p, s.islandEvaluator(k))
		if err != nil {
			return nil, err
		}
		s.subs = append(s.subs, sub)
	}
	s.size = s.subs[0].PopulationSize()
	if icfg.Migrants >= s.size {
		return nil, fmt.Errorf("search: %d migrants exceed the island batch size %d", icfg.Migrants, s.size)
	}
	return s, nil
}

// islandEvaluator answers island k's evaluation of its current batch
// from its slice of the step's fitness values.
func (s *islandSearcher) islandEvaluator(k int) ga.Evaluator {
	return ga.EvaluatorFunc(func([]seq.Sequence) []float64 { return s.fits[k*s.size : (k+1)*s.size] })
}

func (s *islandSearcher) Strategy() string { return s.subs[0].Strategy() }

func (s *islandSearcher) PopulationSize() int { return len(s.subs) * s.size }

func (s *islandSearcher) Generation() int { return s.generation }

func (s *islandSearcher) Population() []ga.Individual {
	var pop []ga.Individual
	for _, sub := range s.subs {
		pop = append(pop, sub.Population()...)
	}
	return pop
}

func (s *islandSearcher) BestEver() (ga.Individual, int) { return s.bestEver, s.bestGen }

func (s *islandSearcher) InitPopulation() {
	for _, sub := range s.subs {
		sub.InitPopulation()
	}
	s.generation = 0
}

// SetPopulation splits seqs into consecutive per-island batches.
func (s *islandSearcher) SetPopulation(seqs []seq.Sequence) error {
	if len(seqs) != s.PopulationSize() {
		return fmt.Errorf("search: got %d sequences, %d islands need %d", len(seqs), len(s.subs), s.PopulationSize())
	}
	for k, sub := range s.subs {
		if err := sub.SetPopulation(seqs[k*s.size : (k+1)*s.size]); err != nil {
			return err
		}
	}
	return nil
}

// ParentHints merges the islands' hints over their slices of seqs.
func (s *islandSearcher) ParentHints(seqs []seq.Sequence) map[string]string {
	hints := make(map[string]string)
	for k := 0; k < len(s.subs) && (k+1)*s.size <= len(seqs); k++ {
		for child, parent := range s.subs[k].ParentHints(seqs[k*s.size : (k+1)*s.size]) {
			hints[child] = parent
		}
	}
	return hints
}

func (s *islandSearcher) Step() ga.Stats {
	var seqs []seq.Sequence
	for _, sub := range s.subs {
		if sub.Population() == nil {
			sub.InitPopulation()
		}
		seqs = append(seqs, batchSeqs(sub.Population())...)
	}
	s.fits = s.eval.EvaluateAll(seqs)
	s.evaluated = make([]ga.Individual, len(seqs))
	for i := range seqs {
		s.evaluated[i] = ga.Individual{Seq: seqs[i], Fitness: s.fits[i]}
	}
	st := batchStats(s.generation, s.evaluated, &s.bestEver, &s.bestGen)

	islandBest := make([]float64, len(s.subs))
	s.counters = obs.StrategyCounters{}
	for k, sub := range s.subs {
		islandBest[k] = sub.Step().Best
		s.counters = sumCounters(s.counters, sub.Counters())
	}
	s.counters.IslandBest = obs.NewFloatList(islandBest)

	s.generation++
	if s.generation%s.cfg.SyncInterval == 0 {
		s.migrate()
	}
	return st
}

// migrate is the master sync: the top Migrants of each island's
// evaluated batch (stable-sorted by fitness) replace the last slots of
// its ring successor's next batch, which the next Step evaluates as if
// the local search had produced them.
func (s *islandSearcher) migrate() {
	n := len(s.subs)
	elites := make([][]ga.Individual, n)
	for k := range elites {
		sorted := append([]ga.Individual(nil), s.evaluated[k*s.size:(k+1)*s.size]...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Fitness > sorted[j].Fitness })
		elites[k] = sorted[:s.cfg.Migrants]
	}
	for k, sub := range s.subs {
		next := batchSeqs(sub.Population())
		for m, ind := range elites[(k-1+n)%n] {
			next[len(next)-s.cfg.Migrants+m] = ind.Seq
		}
		if err := sub.SetPopulation(next); err != nil {
			panic(err) // next has the length of the batch it replaces
		}
	}
}

// Counters reports the islands' strategy counters summed, plus each
// island's best fitness of the step (island_best).
func (s *islandSearcher) Counters() obs.StrategyCounters { return s.counters }

// sumCounters adds two islands' counters. The annealing temperature is
// a schedule value every island shares, so it is carried, not summed.
func sumCounters(a, b obs.StrategyCounters) obs.StrategyCounters {
	a.BeamWidth += b.BeamWidth
	a.BeamUniqueChildren += b.BeamUniqueChildren
	a.BeamEliteExtra += b.BeamEliteExtra
	a.AnnealTemperature = b.AnnealTemperature
	a.AnnealAccepted += b.AnnealAccepted
	a.AnnealUphill += b.AnnealUphill
	a.LandscapeOptima += b.LandscapeOptima
	a.LandscapeRestarts += b.LandscapeRestarts
	a.LandscapeNeutralAccepts += b.LandscapeNeutralAccepts
	return a
}

// islandSnapshot is one island's part of the checkpoint blob: its
// best-ever and its own strategy state.
type islandSnapshot struct {
	BestName, BestResidues string
	BestFitness            float64
	BestGen                int
	State                  []byte
}

// islandsState is the gob payload of an island checkpoint blob; resume
// must match its shape.
type islandsState struct {
	Shape   IslandConfig
	Islands []islandSnapshot
}

func (s *islandSearcher) State() ([]byte, error) {
	st := islandsState{Shape: s.cfg}
	for k, sub := range s.subs {
		blob, err := sub.State()
		if err != nil {
			return nil, fmt.Errorf("search: island %d: %w", k, err)
		}
		best, gen := sub.BestEver()
		st.Islands = append(st.Islands, islandSnapshot{best.Seq.Name(), best.Seq.Residues(), best.Fitness, gen, blob})
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

func (s *islandSearcher) Restore(generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int, state []byte) error {
	var st islandsState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		return fmt.Errorf("search: decode island state: %w", err)
	}
	if st.Shape != s.cfg || len(st.Islands) != len(s.subs) || len(pop) != s.PopulationSize() {
		return fmt.Errorf("search: checkpoint island shape %+v (%d candidates), designer runs %+v (%d candidates)",
			st.Shape, len(pop), s.cfg, s.PopulationSize())
	}
	for k, is := range st.Islands {
		best := ga.Individual{Fitness: is.BestFitness}
		if is.BestResidues != "" {
			b, err := seq.New(is.BestName, is.BestResidues)
			if err != nil {
				return fmt.Errorf("search: island %d best-ever: %w", k, err)
			}
			best.Seq = b
		}
		if err := s.subs[k].Restore(generation, pop[k*s.size:(k+1)*s.size], best, is.BestGen, is.State); err != nil {
			return fmt.Errorf("search: island %d: %w", k, err)
		}
	}
	s.generation, s.bestEver, s.bestGen = generation, bestEver, bestGen
	return nil
}

func (s *islandSearcher) SetStageObserver(fn ga.StageObserver) {
	for _, sub := range s.subs {
		sub.SetStageObserver(fn)
	}
}
