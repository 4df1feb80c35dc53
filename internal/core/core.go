// Package core is InSiPS itself: given a target protein and a set of
// non-target proteins, it evolves a novel protein sequence whose PIPE
// profile is "interacts with the target, interacts with nothing else".
//
// The fitness of a candidate sequence (paper Section 2.2) is
//
//	fitness(seq) = (1 - MAX(PIPE(seq, nt_1..nt_k))) * PIPE(seq, target)
//
// which peaks at 1 in the lower-right corner of the paper's Figure 2 heat
// map: target score 1, every non-target score 0.
//
// The Designer couples the genetic algorithm (package ga) with the
// master/worker PIPE evaluator (package cluster) and records the
// learning curves of Figure 7: per generation, the fittest individual's
// PIPE score against the target, its highest-scoring non-target and the
// average non-target score.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/search"
	"repro/internal/seq"
)

// Fitness is the InSiPS fitness function. nonTargets may be empty, in
// which case fitness equals the target score.
func Fitness(targetScore float64, nonTargetScores []float64) float64 {
	return (1 - MaxScore(nonTargetScores)) * targetScore
}

// minScore returns the minimum of first and rest.
func minScore(first float64, rest []float64) float64 {
	for _, s := range rest {
		if s < first {
			first = s
		}
	}
	return first
}

// MaxScore returns the maximum of scores, or 0 for an empty slice.
func MaxScore(scores []float64) float64 {
	max := 0.0
	for _, s := range scores {
		if s > max {
			max = s
		}
	}
	return max
}

// MeanScore returns the mean of scores, or 0 for an empty slice.
func MeanScore(scores []float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	return total / float64(len(scores))
}

// FitnessGrid samples the fitness surface on a res x res grid over
// (PIPE(seq,target), MAX(PIPE(seq,non-targets))) in [0,1]^2 — the data
// behind the paper's Figure 2 heat map. grid[i][j] is the fitness at
// target score j/(res-1) and max non-target score i/(res-1).
func FitnessGrid(res int) [][]float64 {
	if res < 2 {
		res = 2
	}
	grid := make([][]float64, res)
	for i := range grid {
		grid[i] = make([]float64, res)
		maxNT := float64(i) / float64(res-1)
		for j := range grid[i] {
			target := float64(j) / float64(res-1)
			grid[i][j] = (1 - maxNT) * target
		}
	}
	return grid
}

// Detail holds the score decomposition of one candidate.
type Detail struct {
	Fitness      float64
	Target       float64
	MaxNonTarget float64
	AvgNonTarget float64
}

// CurvePoint is one generation of a Figure 7 learning curve: the score
// decomposition of that generation's fittest individual.
type CurvePoint struct {
	Generation int
	Detail
}

// Problem specifies one design task over a PIPE engine.
type Problem struct {
	Engine       *pipe.Engine
	TargetID     int
	NonTargetIDs []int
	// ExtraTargetIDs, if non-empty, makes the problem multi-target: the
	// design must bind TargetID and every extra target, and fitness
	// takes the weakest target link (see DesignMulti).
	ExtraTargetIDs []int
}

// WireNonTargetIDs returns the non-target list candidates are scored
// against on the wire: the extra targets first, then the non-targets.
// A caller-supplied Options.Backend (a netcluster master, a sharded
// pool) must be built for TargetID and this list.
func (p Problem) WireNonTargetIDs() []int {
	if len(p.ExtraTargetIDs) == 0 {
		return p.NonTargetIDs
	}
	return append(append([]int(nil), p.ExtraTargetIDs...), p.NonTargetIDs...)
}

// fingerprint keys the fitness cache and checkpoint compatibility. A
// single-target problem keeps ProblemFingerprint; a multi-target one
// also hashes its target count, so it never shares checkpoints with
// the single-target problem of the same wire layout.
func (p Problem) fingerprint() uint64 {
	fp := ProblemFingerprint(p.Engine, p.TargetID, p.WireNonTargetIDs())
	if len(p.ExtraTargetIDs) == 0 {
		return fp
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x;targets:%d", fp, 1+len(p.ExtraTargetIDs))
	return h.Sum64()
}

// Options configures a design run.
type Options struct {
	GA          ga.Params
	Cluster     cluster.Config
	Termination ga.Termination
	// Search selects the search strategy driving the design loop. The
	// zero value is the genetic algorithm, bit-identical to the
	// pre-Searcher pipeline; see package search for beam, anneal and
	// landscape. GA supplies the shared knobs (population/batch sizing,
	// sequence length, composition, mutation rate, seed) for every
	// strategy.
	Search search.Config
	// OnGeneration, if non-nil, observes each generation's curve point as
	// the run progresses.
	OnGeneration func(CurvePoint)
	// Backend, if non-nil, supplies candidate evaluation instead of the
	// default in-process pool — e.g. evalbackend.NewMaster over a
	// netcluster.Master, or a sharded composite. The Designer layers its
	// own middleware (metrics span/timing, then the fitness memo cache)
	// on top, and never closes the backend: its lifecycle belongs to
	// the caller. A candidate whose Result.Err is set (a task the
	// backend abandoned) scores zero fitness for that generation; a
	// call-level error aborts the run with a partial Result.
	Backend evalbackend.Backend
	// WarmStart seeds the initial population with chimeras spliced from
	// random natural-protein fragments instead of uniform random
	// sequences. The paper notes "any set of protein sequences can be
	// used as a starting population" and that runs can "benefit from
	// [the] starting pool containing a few very good sequences"; natural
	// fragments carry real interaction motifs, giving the GA an immediate
	// foothold at small population budgets.
	WarmStart bool
	// Logger, if non-nil, receives structured span events for the run:
	// run start/end, per-generation progress, and evaluation batches.
	Logger *obs.Logger
	// Metrics, if non-nil, collects per-stage timing histograms: the GA
	// operators (via the engine's stage observer), the PIPE evaluation
	// batch, whole generations, and checkpoint writes.
	Metrics *obs.Registry
	// Journal, if non-nil, receives one GenerationRecord per generation
	// and periodic population checkpoints (per its CheckpointEvery),
	// including a final checkpoint on context cancellation — the state
	// ResumeContext restarts from. The Designer does not close it.
	Journal *obs.RunJournal
	// OnJournalRecord, if non-nil, observes (and may annotate — e.g.
	// stamp netcluster worker/lease stats into) each generation's record
	// before it is appended. It fires even when Journal is nil, so
	// embedders can stream records without touching disk.
	OnJournalRecord func(*obs.GenerationRecord)
	// Surrogate, if non-nil, enables the online surrogate pre-scorer
	// (package surrogate): a linear model trained on every real
	// evaluation scores each generation instantly, and only the predicted
	// top-K fraction plus an exploration quota reach the real backend;
	// the rest are answered with capped estimates. Installed outermost —
	// above the fitness memo cache — so estimates are never memoized as
	// real scores. A zero Seed inherits GA.Seed, and a nil Logger
	// inherits Options.Logger, keeping surrogate runs reproducible from
	// the one run seed. Leave nil for the exact pre-surrogate pipeline.
	Surrogate *evalbackend.SurrogateConfig
	// FitnessCache, if non-nil, memoizes candidate evaluations across
	// generations (and across Designers sharing the cache — entries are
	// keyed by problem fingerprint, so different problems never
	// cross-talk). If nil, the Designer creates a private cache of
	// DefaultFitnessCacheSize; set DisableFitnessCache to evaluate every
	// candidate unconditionally.
	FitnessCache *FitnessCache
	// DisableFitnessCache turns memoization off (ablation/debugging).
	DisableFitnessCache bool
}

// Result is the outcome of a design run.
type Result struct {
	// Best is the fittest sequence ever observed, with its decomposition.
	Best       seq.Sequence
	BestDetail Detail
	// Curve has one point per generation (the fittest individual of that
	// generation) — the paper's Figure 7 series.
	Curve []CurvePoint
	// Generations is the number of generations executed.
	Generations int
}

// Designer runs InSiPS on one problem. Create with NewDesigner; a
// Designer is single-use and not safe for concurrent use.
type Designer struct {
	problem  Problem
	opts     Options
	backend  evalbackend.Backend // the full middleware chain evaluateAll calls
	searcher search.Searcher

	problemFP uint64 // cache key namespace for this problem

	runCtx  context.Context // the active run's context, threaded to the backend
	details []Detail        // details of the current generation, by index
	evalErr error           // first evaluation backend failure, surfaced by RunContext
	used    bool            // a Designer drives at most one run

	// rec is the current generation's journal record as evaluateAll
	// leaves it: the evaluation accounting, derived from backend Stats
	// and engine counter deltas around the call. recordGeneration adds
	// the searcher's statistics.
	rec obs.GenerationRecord
}

// NewDesigner validates the problem and wires the GA to the master/worker
// evaluator.
func NewDesigner(problem Problem, opts Options) (*Designer, error) {
	if problem.Engine == nil {
		return nil, fmt.Errorf("core: nil PIPE engine")
	}
	for _, nt := range problem.NonTargetIDs {
		if slices.Contains(problem.ExtraTargetIDs, nt) {
			return nil, fmt.Errorf("core: protein %d is both target and non-target", nt)
		}
	}
	if opts.Surrogate != nil && len(problem.ExtraTargetIDs) > 0 {
		return nil, fmt.Errorf("core: the surrogate ranks candidates by single-target fitness and cannot triage a multi-target problem")
	}
	// Always construct the in-process pool over the wire layout: it
	// validates the problem's protein IDs (for every backend; an extra
	// target equal to TargetID fails as a non-target) and costs nothing
	// at rest.
	pool, err := cluster.New(problem.Engine, problem.TargetID, problem.WireNonTargetIDs(), opts.Cluster)
	if err != nil {
		return nil, err
	}
	d := &Designer{problem: problem, opts: opts, runCtx: context.Background()}
	// The fingerprint keys both the fitness memo cache and checkpoint
	// compatibility checks, so compute it regardless of caching.
	d.problemFP = problem.fingerprint()
	// Assemble the evaluation chain: leaf backend (caller-supplied or
	// the in-process pool), then the metrics span/timing layer, then —
	// outermost — the fitness memo cache so hits skip evaluation and
	// timing alike.
	base := opts.Backend
	if base == nil {
		base = evalbackend.WrapPool(pool)
	}
	d.backend = evalbackend.WithMetrics(base, opts.Logger, opts.Metrics)
	if !opts.DisableFitnessCache {
		cache := opts.FitnessCache
		if cache == nil {
			cache = NewFitnessCache(DefaultFitnessCacheSize)
		}
		d.backend = evalbackend.WithFitnessCache(d.backend, cache, d.problemFP)
	}
	if opts.Surrogate != nil {
		cfg := *opts.Surrogate
		if cfg.Seed == 0 {
			cfg.Seed = opts.GA.Seed
		}
		if cfg.Logger == nil {
			cfg.Logger = opts.Logger
		}
		d.backend = evalbackend.WithSurrogate(d.backend, cfg)
	}
	sr, err := search.New(opts.Search, opts.GA, ga.EvaluatorFunc(d.evaluateAll))
	if err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		sr.SetStageObserver(opts.Metrics.Observe)
	}
	d.searcher = sr
	return d, nil
}

// ProblemFP returns the fingerprint of the Designer's problem — the
// value stamped into checkpoints and verified on resume.
func (d *Designer) ProblemFP() uint64 { return d.problemFP }

// islands returns the island count stamped into checkpoints: 0 for one
// population.
func (d *Designer) islands() int {
	if !d.opts.Search.Islands.Enabled() {
		return 0
	}
	return d.opts.Search.Islands.Count
}

// Population returns the current (not yet evaluated) candidate batch.
// The slice is owned by the searcher; treat it as read-only.
func (d *Designer) Population() []ga.Individual { return d.searcher.Population() }

// Strategy returns the search strategy's registered name ("ga", "beam",
// "anneal" or "landscape") — the value stamped into journal records and
// checkpoints.
func (d *Designer) Strategy() string { return d.searcher.Strategy() }

// evaluateAll is the GA's fitness callback: it hands the generation to
// the evaluation backend chain (fitness memo cache over metrics over
// the leaf backend — see NewDesigner) and converts the PIPE score
// profiles to fitness, stashing the decomposition for curve recording.
// Per-generation journal accounting (evaluated / cache hits / eval
// wall) comes from diffing the chain's Stats around the call.
func (d *Designer) evaluateAll(seqs []seq.Sequence) []float64 {
	fits := make([]float64, len(seqs))
	d.details = make([]Detail, len(seqs))
	d.rec = obs.GenerationRecord{PopHash: PopulationHash(seqs), Population: len(seqs)}
	defer func() {
		for i, f := range fits {
			if i == 0 || f < d.rec.MinFitness {
				d.rec.MinFitness = f
			}
		}
	}()
	// Attach generation ancestry so the in-process pool's batched
	// preprocessing can build children incrementally from their parents.
	// Hints are keyed by residue content, so middleware that reorders or
	// subsets the generation (fitness cache, surrogate, sharding) leaves
	// them valid; an empty map still announces generation-aware
	// evaluation so the pool retains this generation's queries as the
	// next one's delta parents. Backends without the delta path ignore
	// the context value.
	ctx := cluster.WithParentHints(d.runCtx, d.searcher.ParentHints(seqs))
	wcPre := d.problem.Engine.WindowCacheStats()
	dqPre, _ := d.problem.Engine.DeltaStats()
	pre := d.backend.Stats()
	results, err := d.backend.EvaluateAll(ctx, seqs)
	post := d.backend.Stats()
	wcPost := d.problem.Engine.WindowCacheStats()
	dqPost, _ := d.problem.Engine.DeltaStats()
	rec := &d.rec
	rec.WinCacheHits = wcPost.Hits - wcPre.Hits
	rec.WinCacheMisses = wcPost.Misses - wcPre.Misses
	rec.WinCacheEvicted = wcPost.Evicted - wcPre.Evicted
	rec.DeltaQueries = dqPost - dqPre
	// Hedged duplicates are scored twice (primary and hedge copy) but
	// answer one candidate; subtracting the stale copies keeps the
	// journal identity evaluated + cache_hits + abandoned + estimated ==
	// population exact under hedging.
	rec.Evaluated = int((post.Tasks - pre.Tasks) - (post.HedgedStale - pre.HedgedStale))
	rec.CacheHits = int(post.CacheHits - pre.CacheHits)
	rec.StolenBatches = int(post.StolenBatches - pre.StolenBatches)
	rec.HedgedWins = int(post.HedgedWins - pre.HedgedWins)
	rec.EvalWallMS = float64(time.Duration(post.EvalWallNS-pre.EvalWallNS)) / float64(time.Millisecond)
	rec.SurrogateEstimated = int(post.SurrogateEstimated - pre.SurrogateEstimated)
	rec.SurrogateTrained = int(post.SurrogateTrained - pre.SurrogateTrained)
	if post.SurrogateTrained > 0 {
		// Cumulative prequential MAE of the model so far, in fitness units.
		rec.SurrogateMAE = float64(post.SurrogateErrMicro) / 1e6 / float64(post.SurrogateTrained)
	}
	if err == nil && len(results) != len(seqs) {
		err = fmt.Errorf("core: evaluation backend returned %d results for %d candidates", len(results), len(seqs))
	}
	for i := 0; err == nil && i < len(results); i++ {
		// A backend built for the single-target layout of a multi-target
		// problem lacks the extra targets' scores.
		if r := results[i]; r.Err == nil && len(r.NonTargetScores) < len(d.problem.ExtraTargetIDs) {
			err = fmt.Errorf("core: evaluation backend scored %d non-targets; the multi-target wire layout starts with %d extra targets",
				len(r.NonTargetScores), len(d.problem.ExtraTargetIDs))
		}
	}
	if err != nil {
		if d.evalErr == nil {
			d.evalErr = err
		}
		d.opts.Logger.Error("evaluation backend failed", "err", err)
		return fits
	}
	for i, r := range results {
		if r.Err != nil {
			// The backend abandoned this task (e.g. netcluster quarantine
			// after MaxAttempts, or a failed shard); score it as a dead
			// end rather than sinking the generation. Abandonment is not
			// deterministic, so the cache middleware never memoizes it.
			d.details[i] = Detail{}
			rec.AbandonedTasks++
			continue
		}
		d.details[i] = d.detail(r)
		fits[i] = d.details[i].Fitness
	}
	if rec.AbandonedTasks > 0 {
		d.opts.Logger.Warn("evaluation tasks abandoned; scoring zero fitness",
			"abandoned", rec.AbandonedTasks, "candidates", len(seqs))
	}
	return fits
}

// detail scores one candidate with the one InSiPS formula,
// (1 - MAX(non-targets)) * MIN(targets), splitting the wire profile into
// the leading extra targets and the true non-targets. With one target
// it is Fitness exactly.
func (d *Designer) detail(r cluster.Result) Detail {
	extra := len(d.problem.ExtraTargetIDs)
	nts := r.NonTargetScores[extra:]
	det := Detail{
		Target:       minScore(r.TargetScore, r.NonTargetScores[:extra]),
		MaxNonTarget: MaxScore(nts),
		AvgNonTarget: MeanScore(nts),
	}
	det.Fitness = (1 - det.MaxNonTarget) * det.Target
	return det
}

// NaturalFragmentPopulation builds n chimeric sequences of the given
// length by splicing random fragments of natural proteome proteins —
// the warm-start initial population.
func NaturalFragmentPopulation(engine *pipe.Engine, rng *rand.Rand, n, length int) []seq.Sequence {
	ix := engine.Index()
	out := make([]seq.Sequence, n)
	for i := range out {
		var body []byte
		for len(body) < length {
			p := ix.Protein(rng.Intn(ix.NumProteins()))
			fragLen := length/3 + rng.Intn(length/3+1)
			if fragLen > p.Len() {
				fragLen = p.Len()
			}
			start := rng.Intn(p.Len() - fragLen + 1)
			body = append(body, p.Residues()[start:start+fragLen]...)
		}
		sq, err := seq.New(fmt.Sprintf("chimera%04d", i), string(body[:length]))
		if err != nil {
			// Natural residues are always valid; defensive only.
			panic(err)
		}
		out[i] = sq
	}
	return out
}

// PopulationHash is the FNV-64a hash (hex) of a population's residues in
// slot order — the per-generation determinism fingerprint written to the
// run journal. Two runs diverge exactly where their hashes first differ.
func PopulationHash(seqs []seq.Sequence) string {
	h := fnv.New64a()
	for _, s := range seqs {
		h.Write([]byte(s.Residues()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Run executes the design loop to termination and returns the result.
func (d *Designer) Run() (Result, error) {
	return d.RunContext(context.Background())
}

// RunContext executes the design loop to termination or until ctx is
// cancelled, whichever comes first. Cancellation is observed between
// generations, so the run stops within one generation of cancel; the
// partial Result (curve and best-so-far of the completed generations) is
// returned alongside ctx's error, and — when a Journal is configured — a
// final checkpoint is written so the run can be resumed. A long-running
// service uses this hook, together with Options.OnGeneration, to report
// design-job progress and abort jobs promptly.
func (d *Designer) RunContext(ctx context.Context) (Result, error) {
	if d.used {
		return Result{}, fmt.Errorf("core: Designer is single-use")
	}
	d.used = true
	if d.opts.WarmStart {
		rng := rand.New(rand.NewSource(d.opts.GA.Seed))
		pop := NaturalFragmentPopulation(d.problem.Engine, rng,
			d.searcher.PopulationSize(), d.opts.GA.SeqLen)
		if err := d.searcher.SetPopulation(pop); err != nil {
			return Result{}, err
		}
	} else {
		d.searcher.InitPopulation()
	}
	return d.runLoop(ctx, nil, Detail{}, seq.Sequence{})
}

// Resume restarts a checkpointed run to termination.
func (d *Designer) Resume(cp obs.Checkpoint) (Result, error) {
	return d.ResumeContext(context.Background(), cp)
}

// ResumeContext restores the searcher from a checkpoint (population,
// generation counter, best-ever individual, learning-curve prefix and
// any strategy-private state blob) and continues the design loop.
// Because every construction draw derives from (Seed, generation,
// slot), the continued run — curve, best sequence, final population —
// is bit-identical to one that was never interrupted. The checkpoint
// must come from the same problem (fingerprint), seed, search strategy
// and population size the Designer was built with; in particular a
// checkpoint written under a different -strategy fails fast here rather
// than silently continuing under the configured one.
func (d *Designer) ResumeContext(ctx context.Context, cp obs.Checkpoint) (Result, error) {
	if d.used {
		return Result{}, fmt.Errorf("core: Designer is single-use")
	}
	if err := cp.Validate(); err != nil {
		return Result{}, err
	}
	if cp.ProblemFP != d.problemFP {
		return Result{}, fmt.Errorf("core: checkpoint is for problem %016x, designer solves %016x",
			cp.ProblemFP, d.problemFP)
	}
	if cp.GASeed != d.opts.GA.Seed {
		return Result{}, fmt.Errorf("core: checkpoint GA seed %d, designer uses %d", cp.GASeed, d.opts.GA.Seed)
	}
	// Pre-strategy checkpoints carry no tag and were always GA runs.
	cpStrategy := cp.Strategy
	if cpStrategy == "" {
		cpStrategy = search.StrategyGA
	}
	if cpStrategy != d.searcher.Strategy() {
		return Result{}, fmt.Errorf("core: checkpoint was written by strategy %q, designer runs %q",
			cpStrategy, d.searcher.Strategy())
	}
	if islands := d.islands(); cp.Islands != islands {
		return Result{}, fmt.Errorf("core: checkpoint was written by a run of %d islands, designer runs %d (0 = one population)",
			cp.Islands, islands)
	}
	if cp.PopulationSize != d.searcher.PopulationSize() {
		return Result{}, fmt.Errorf("core: checkpoint population %d, designer uses %d",
			cp.PopulationSize, d.searcher.PopulationSize())
	}
	d.used = true
	pop := make([]seq.Sequence, len(cp.Population))
	for i, sr := range cp.Population {
		s, err := seq.New(sr.Name, sr.Residues)
		if err != nil {
			return Result{}, fmt.Errorf("core: checkpoint population slot %d: %w", i, err)
		}
		pop[i] = s
	}
	var bestSeq seq.Sequence
	bestDetail := Detail{
		Fitness:      cp.BestFitness,
		Target:       cp.BestTarget,
		MaxNonTarget: cp.BestMaxNT,
		AvgNonTarget: cp.BestAvgNT,
	}
	if cp.BestEver.Residues != "" {
		s, err := seq.New(cp.BestEver.Name, cp.BestEver.Residues)
		if err != nil {
			return Result{}, fmt.Errorf("core: checkpoint best-ever sequence: %w", err)
		}
		bestSeq = s
	}
	if err := d.searcher.Restore(cp.Generation, pop,
		ga.Individual{Seq: bestSeq, Fitness: cp.BestFitness}, cp.BestEverGen, cp.SearchState); err != nil {
		return Result{}, err
	}
	curve := make([]CurvePoint, 0, len(cp.Curve))
	for _, cr := range cp.Curve {
		curve = append(curve, CurvePoint{Generation: cr.Generation, Detail: Detail{
			Fitness:      cr.Fitness,
			Target:       cr.Target,
			MaxNonTarget: cr.MaxNonTarget,
			AvgNonTarget: cr.AvgNonTarget,
		}})
	}
	d.opts.Logger.Info("run resumed", "generation", cp.Generation, "best_fitness", cp.BestFitness)
	return d.runLoop(ctx, curve, bestDetail, bestSeq)
}

// runLoop drives the GA from its current state (fresh or restored) to
// termination, recording the learning curve, appending journal records
// and writing periodic checkpoints.
func (d *Designer) runLoop(ctx context.Context, curve []CurvePoint, bestDetail Detail, bestSeq seq.Sequence) (Result, error) {
	d.runCtx = ctx
	term := d.opts.Termination
	if term.MaxGenerations <= 0 && term.StallGenerations <= 0 {
		term.MaxGenerations = 100
	}
	result := func() Result {
		return Result{
			Best:        bestSeq,
			BestDetail:  bestDetail,
			Curve:       curve,
			Generations: len(curve),
		}
	}
	endRun := d.opts.Logger.Span("run",
		"target", d.problem.TargetID, "extra_targets", len(d.problem.ExtraTargetIDs),
		"non_targets", len(d.problem.NonTargetIDs),
		"strategy", d.searcher.Strategy(), "start_generation", d.searcher.Generation())
	for {
		if err := ctx.Err(); err != nil {
			// Make the interruption resumable: checkpoint the state the
			// completed generations produced.
			d.writeCheckpoint(curve, bestDetail)
			endRun("generations", len(curve), "cancelled", true)
			return result(), err
		}
		genStart := time.Now()
		st := d.searcher.Step()
		if d.evalErr != nil {
			// The evaluation backend failed (e.g. the distributed master
			// closed); return what the completed generations produced.
			d.writeCheckpoint(curve, bestDetail)
			endRun("generations", len(curve), "eval_err", d.evalErr.Error())
			return result(), d.evalErr
		}
		// Locate the generation's fittest individual's decomposition.
		bestIdx := 0
		for i, det := range d.details {
			if det.Fitness > d.details[bestIdx].Fitness {
				bestIdx = i
			}
		}
		cp := CurvePoint{Generation: st.Generation, Detail: d.details[bestIdx]}
		curve = append(curve, cp)
		if st.NewBestFound {
			bestDetail = d.details[bestIdx]
			bestSeq = st.BestEverSeq
		}
		if d.opts.OnGeneration != nil {
			d.opts.OnGeneration(cp)
		}
		stop := term.ShouldStop(st.Generation, st.BestEverGen)
		d.recordGeneration(st, cp, curve, bestDetail, time.Since(genStart), stop)
		if stop {
			endRun("generations", len(curve), "best_fitness", bestDetail.Fitness)
			return result(), nil
		}
	}
}

// recordGeneration emits the generation's journal record, observes the
// generation-scale histograms and writes a periodic checkpoint when due.
func (d *Designer) recordGeneration(st ga.Stats, cp CurvePoint, curve []CurvePoint, bestDetail Detail, genWall time.Duration, final bool) {
	d.opts.Metrics.Observe(obs.StageGeneration, genWall)
	if d.opts.Journal == nil && d.opts.OnJournalRecord == nil {
		return
	}
	rec := d.rec
	rec.Generation = st.Generation
	rec.TimeUnixMS = time.Now().UnixMilli()
	rec.Strategy = d.searcher.Strategy()
	rec.StrategyCounters = d.searcher.Counters()
	rec.BestFitness, rec.MeanFitness = st.Best, st.Mean
	rec.Target, rec.MaxNonTarget, rec.AvgNonTarget = cp.Target, cp.MaxNonTarget, cp.AvgNonTarget
	rec.BestEverFitness, rec.NewBest = st.BestEver, st.NewBestFound
	rec.GenWallMS = float64(genWall) / float64(time.Millisecond)
	// Checkpoint on cadence and always after the final generation, so a
	// finished run's directory holds its terminal state.
	if d.opts.Journal != nil && (final || d.opts.Journal.ShouldCheckpoint(d.searcher.Generation())) {
		rec.Checkpointed = d.writeCheckpoint(curve, bestDetail)
	}
	if d.opts.OnJournalRecord != nil {
		d.opts.OnJournalRecord(&rec)
	}
	if d.opts.Journal != nil {
		if err := d.opts.Journal.Append(rec); err != nil {
			d.opts.Logger.Warn("journal append failed", "err", err)
		}
	}
	d.opts.Logger.Debug("generation",
		"gen", rec.Generation, "best", rec.BestFitness, "mean", rec.MeanFitness,
		"best_ever", rec.BestEverFitness, "evaluated", rec.Evaluated,
		"cache_hits", rec.CacheHits, "eval_ms", rec.EvalWallMS)
}

// writeCheckpoint snapshots the searcher state into the journal's
// checkpoint file. Returns whether a checkpoint was written.
func (d *Designer) writeCheckpoint(curve []CurvePoint, bestDetail Detail) bool {
	if d.opts.Journal == nil || len(curve) == 0 {
		return false
	}
	start := time.Now()
	state, err := d.searcher.State()
	if err != nil {
		d.opts.Logger.Warn("checkpoint failed: strategy state", "err", err)
		return false
	}
	bestEver, bestGen := d.searcher.BestEver()
	cp := obs.Checkpoint{
		ProblemFP:      d.problemFP,
		GASeed:         d.opts.GA.Seed,
		Strategy:       d.searcher.Strategy(),
		SearchState:    state,
		Islands:        d.islands(),
		PopulationSize: d.searcher.PopulationSize(),
		Generation:     d.searcher.Generation(),
		BestEverGen:    bestGen,
		BestFitness:    bestDetail.Fitness,
		BestTarget:     bestDetail.Target,
		BestMaxNT:      bestDetail.MaxNonTarget,
		BestAvgNT:      bestDetail.AvgNonTarget,
	}
	if bestEver.Seq.Len() > 0 {
		cp.BestEver = obs.SequenceRecord{Name: bestEver.Seq.Name(), Residues: bestEver.Seq.Residues()}
	}
	for _, ind := range d.searcher.Population() {
		cp.Population = append(cp.Population, obs.SequenceRecord{Name: ind.Seq.Name(), Residues: ind.Seq.Residues()})
	}
	for _, p := range curve {
		cp.Curve = append(cp.Curve, obs.CurveRecord{
			Generation:   p.Generation,
			Fitness:      p.Fitness,
			Target:       p.Target,
			MaxNonTarget: p.MaxNonTarget,
			AvgNonTarget: p.AvgNonTarget,
		})
	}
	if err := d.opts.Journal.WriteCheckpoint(cp); err != nil {
		d.opts.Logger.Warn("checkpoint failed", "err", err)
		return false
	}
	d.opts.Metrics.Observe(obs.StageCheckpoint, time.Since(start))
	return true
}

// Design is the one-call convenience API: evolve an inhibitor for
// targetID avoiding nonTargetIDs.
func Design(engine *pipe.Engine, targetID int, nonTargetIDs []int, opts Options) (Result, error) {
	d, err := NewDesigner(Problem{Engine: engine, TargetID: targetID, NonTargetIDs: nonTargetIDs}, opts)
	if err != nil {
		return Result{}, err
	}
	return d.Run()
}
