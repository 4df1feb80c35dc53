package core

import (
	"fmt"

	"repro/internal/pipe"
	"repro/internal/seq"
)

// Multi-target design is the paper's stated future direction ("designing
// inhibitory proteins to obstruct the spread of certain viruses"): a
// single synthetic protein that binds *every* protein in a target set —
// e.g. the variant surface proteins of a virus — while avoiding the
// non-targets. The fitness generalizes the single-target formula with
// the weakest target link as the bottleneck:
//
//	fitness(seq) = (1 - MAX(PIPE(seq, nts))) * MIN_t(PIPE(seq, t))

// MultiFitness computes the multi-target fitness. An empty target set
// scores 0 (there is nothing to bind).
func MultiFitness(targetScores, nonTargetScores []float64) float64 {
	if len(targetScores) == 0 {
		return 0
	}
	return (1 - MaxScore(nonTargetScores)) * minScore(targetScores[0], targetScores[1:])
}

// MultiDetail decomposes a multi-target candidate's scores.
type MultiDetail struct {
	Fitness      float64
	TargetScores []float64
	MinTarget    float64
	MaxNonTarget float64
	AvgNonTarget float64
}

// MultiResult is the outcome of a multi-target design run.
type MultiResult struct {
	Best        seq.Sequence
	BestDetail  MultiDetail
	Generations int
}

// DesignMulti evolves one sequence predicted to bind every target in
// targetIDs while avoiding nonTargetIDs. It is a thin wrapper over the
// Designer with a multi-target Problem, so every Options field applies.
func DesignMulti(engine *pipe.Engine, targetIDs, nonTargetIDs []int, opts Options) (MultiResult, error) {
	if len(targetIDs) == 0 {
		return MultiResult{}, fmt.Errorf("core: empty target set")
	}
	d, err := NewDesigner(Problem{
		Engine:         engine,
		TargetID:       targetIDs[0],
		ExtraTargetIDs: targetIDs[1:],
		NonTargetIDs:   nonTargetIDs,
	}, opts)
	if err != nil {
		return MultiResult{}, err
	}
	res, err := d.Run()
	if err != nil {
		return MultiResult{}, err
	}
	// Re-score the winner against each target for the per-target
	// breakdown; PIPE scores are deterministic, so these are the scores
	// the run saw.
	return MultiResult{
		Best: res.Best,
		BestDetail: MultiDetail{
			Fitness:      res.BestDetail.Fitness,
			TargetScores: engine.ScoreMany(res.Best, targetIDs, opts.Cluster.ThreadsPerWorker),
			MinTarget:    res.BestDetail.Target,
			MaxNonTarget: res.BestDetail.MaxNonTarget,
			AvgNonTarget: res.BestDetail.AvgNonTarget,
		},
		Generations: res.Generations,
	}, nil
}
