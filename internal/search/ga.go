package search

import (
	"fmt"

	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/seq"
)

// gaSearcher adapts ga.Engine to the Searcher interface. It is a pure
// delegation layer — every construction draw, selection and statistic
// comes from the engine unchanged — so a GA run through the Searcher
// seam is bit-identical to one driving the engine directly (the golden
// trajectory and resume suites prove it).
type gaSearcher struct {
	*ga.Engine // Generation, Population, BestEver, InitPopulation, SetPopulation, Step, SetStageObserver
}

// NewGA wraps the genetic algorithm as a Searcher.
func NewGA(params ga.Params, eval ga.Evaluator) (Searcher, error) {
	eng, err := ga.New(params, eval)
	if err != nil {
		return nil, err
	}
	return &gaSearcher{eng}, nil
}

func (g *gaSearcher) Strategy() string { return StrategyGA }

func (g *gaSearcher) PopulationSize() int { return g.Params().PopulationSize }

// ParentHints rebuilds generation ancestry from the engine's provenance:
// each child maps to its primary parent in the previous evaluated
// generation, the base of incremental (delta) preprocessing. Hints are
// always non-nil — an empty map still announces generation-aware
// evaluation, so the pool retains this generation's queries as the next
// one's delta parents.
func (g *gaSearcher) ParentHints(seqs []seq.Sequence) map[string]string {
	hints := make(map[string]string)
	if prov := g.Provenance(); prov != nil {
		prevGen := g.LastEvaluated()
		for i, p := range prov {
			if i < len(seqs) && p.ParentA >= 0 && p.ParentA < len(prevGen) {
				hints[seqs[i].Residues()] = prevGen[p.ParentA].Seq.Residues()
			}
		}
	}
	return hints
}

func (g *gaSearcher) Counters() obs.StrategyCounters { return obs.StrategyCounters{} }

// State returns nil: the GA's unevaluated population plus the (Seed,
// generation, slot) draw discipline fully determine the continuation.
func (g *gaSearcher) State() ([]byte, error) { return nil, nil }

func (g *gaSearcher) Restore(generation int, pop []seq.Sequence, bestEver ga.Individual, bestGen int, state []byte) error {
	if len(state) != 0 {
		return fmt.Errorf("search: ga checkpoint carries %d bytes of strategy state, want none", len(state))
	}
	return g.Engine.Restore(generation, pop, bestEver, bestGen)
}
