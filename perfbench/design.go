package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/yeastgen"
)

// designShape fixes one design workload.
type designShape struct {
	proteome         yeastgen.Params
	pop, seqLen, k   int
	workers, threads int
	// A run is a series of designs (jobs); design i evolves from GA seed
	// i+1, the same in every run. The cost of a GA design depends on
	// where its search wanders (whether and which binder it finds, and
	// from which natural fragments): over 30 GA seeds the wall time of
	// a design varied with a coefficient of variation of 0.34-0.44, so
	// a run over seed-chosen designs could not resolve a few per cent.
	// -seed picks the design whose trajectory is checked against a
	// replay (design-k25) or an in-process run (netcluster-k2).
	designs int
	// gensPerSecond is the rate the workload ran at on the 2-core machine
	// the benchmark was sized on; -seconds times it gives the fixed
	// generation count, so every run of a seed does the same work.
	gensPerSecond float64
	net           bool // evaluate over netcluster instead of the in-process pool
}

var (
	// design-k25: the production-shaped Fig 7 run. Most CPU goes to the
	// PIPE kernel and the cached/delta window search, so kernel and cache
	// changes show here.
	designK25 = designShape{proteome: yeastgen.DefaultParams(), pop: 200, seqLen: 130, k: 25,
		workers: 2, threads: 1, designs: 3, gensPerSecond: 8}
	// netcluster-k2: workers score one candidate at a time with an
	// uncached window search, bypassing the window cache, the delta path
	// and most of the kernel; wire and search changes show here.
	netclusterK2 = designShape{proteome: yeastgen.DefaultParams(), pop: 200, seqLen: 130, k: 2,
		workers: 2, threads: 1, designs: 3, gensPerSecond: 5, net: true}
)

// sized returns the shape and the generation count of each design.
func (s designShape) sized(cfg config) (designShape, int) {
	if cfg.tiny {
		s.proteome = yeastgen.TestParams()
		s.pop, s.seqLen, s.designs = 30, 60, 2
		return s, 3
	}
	return s, max(2, int(math.Round(float64(cfg.seconds)*s.gensPerSecond/float64(s.designs))))
}

// seed is the GA seed of design i of a run.
func (s designShape) seed(i int) int64 { return int64(i) + 1 }

func (s designShape) describe(gens int) string {
	backend := fmt.Sprintf("in-process pool %dx%d", s.workers, s.threads)
	if s.net {
		backend = fmt.Sprintf("netcluster master + %d loopback workers x %d thread", s.workers, s.threads)
	}
	return fmt.Sprintf("shape    proteome %d+%d proteins (yeastgen seed %d), %d designs of pop %d, len %d, k %d, warm start, %d generations, %s",
		s.proteome.NumProteins, s.proteome.WetlabTargets, s.proteome.Seed, s.designs, s.pop, s.seqLen, s.k, gens, backend)
}

// problem is a generated proteome, its engine and the design problem:
// the first wet-lab target against the first k other proteins, as
// insipsd picks non-targets by default.
type problem struct {
	engine *pipe.Engine
	target int
	nts    []int
}

func newProblem(s designShape) (*problem, error) {
	pr, err := yeastgen.Generate(s.proteome)
	if err != nil {
		return nil, err
	}
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		return nil, err
	}
	p := &problem{engine: eng, target: pr.WetlabTargetIDs()[0]}
	for id := 0; len(p.nts) < s.k && id < len(pr.Proteins); id++ {
		if id != p.target {
			p.nts = append(p.nts, id)
		}
	}
	return p, nil
}

// designRun is one core.Designer run.
type designRun struct {
	p       *problem
	shape   designShape
	seed    int64
	gens    int
	backend evalbackend.Backend // nil: the Designer's own in-process pool
	metrics *obs.Registry
	journal string // run directory; "" runs without a journal
	tr      *tracer
}

type designResult struct {
	res          core.Result
	recs         []obs.GenerationRecord
	wall         time.Duration
	journalBytes int64
}

func (r designRun) run() (designResult, error) {
	var out designResult
	gp := ga.DefaultParams()
	gp.PopulationSize, gp.SeqLen, gp.Seed = r.shape.pop, r.shape.seqLen, r.seed
	opts := core.Options{
		GA:          gp,
		WarmStart:   true,
		Cluster:     cluster.Config{Workers: r.shape.workers, ThreadsPerWorker: r.shape.threads, Metrics: r.metrics},
		Termination: ga.Termination{MaxGenerations: r.gens},
		Metrics:     r.metrics,
		Backend:     r.backend,
		// A traced chain carries its own fitness cache between timing
		// wrappers.
		DisableFitnessCache: r.tr != nil,
		OnJournalRecord: func(rec *obs.GenerationRecord) {
			out.recs = append(out.recs, *rec)
		},
	}
	if r.tr != nil {
		// A generation span runs from one OnGeneration callback to the
		// next, so it holds the search step, the evaluation call and the
		// previous generation's journal record and checkpoint.
		gen := r.tr.begin("generation")
		opts.OnGeneration = func(cp core.CurvePoint) {
			r.tr.end(gen)
			if cp.Generation+1 < r.gens {
				gen = r.tr.begin("generation")
			}
		}
	}
	if r.journal != "" {
		j, err := obs.OpenJournal(r.journal, obs.JournalOptions{})
		if err != nil {
			return out, err
		}
		defer j.Close()
		opts.Journal = j
	}
	start := time.Now()
	d, err := core.NewDesigner(core.Problem{Engine: r.p.engine, TargetID: r.p.target, NonTargetIDs: r.p.nts}, opts)
	if err != nil {
		return out, err
	}
	out.res, err = d.Run()
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	if r.journal != "" {
		fi, err := os.Stat(obs.JournalPath(r.journal))
		if err != nil {
			return out, err
		}
		out.journalBytes = fi.Size()
	}
	return out, nil
}

// abandoned sums the tasks the backend gave up on.
func (r designResult) abandoned() int {
	n := 0
	for _, rec := range r.recs {
		n += rec.AbandonedTasks
	}
	return n
}

// setDesignEndToEnd fills the end-to-end metrics of a run's designs.
// Each design is a job: its turnaround is its wall time. Score latency
// is the time one generation's candidates spent in evaluation (the
// journal's eval_wall_ms).
func setDesignEndToEnd(o *outcome, setupS float64, runs []designResult) error {
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	var evalMS, turnaround []float64
	var wall time.Duration
	gens := 0
	for _, r := range runs {
		for _, rec := range r.recs {
			evalMS = append(evalMS, rec.EvalWallMS)
		}
		gens += len(r.recs)
		wall += r.wall
		turnaround = append(turnaround, r.wall.Seconds())
	}
	o.notef("designs  wall %.3f s", turnaround)
	o.set("setup_s", "s", setupS)
	o.set("gens_per_s", "1/s", float64(gens)/wall.Seconds())
	o.set("score_p50_ms", "ms", quantile(evalMS, 0.5))
	o.set("score_p90_ms", "ms", quantile(evalMS, 0.9))
	o.set("job_turnaround_s", "s", median(turnaround))
	o.set("jobs_per_s", "1/s", float64(len(runs))/wall.Seconds())
	o.set("peak_rss_mb", "MB", rss)
	return nil
}

// runDesigns runs the shape's designs one after another. backend, if
// non-nil, builds each design's evaluation backend.
func runDesigns(p *problem, shape designShape, gens int, dir string, backend func() evalbackend.Backend) ([]designResult, error) {
	var runs []designResult
	for i := 0; i < shape.designs; i++ {
		r := designRun{p: p, shape: shape, seed: shape.seed(i), gens: gens, metrics: obs.NewRegistry(),
			journal: filepath.Join(dir, fmt.Sprintf("design-%d", i))}
		if backend != nil {
			r.backend = backend()
		}
		res, err := r.run()
		if err != nil {
			return nil, err
		}
		runs = append(runs, res)
	}
	return runs, nil
}

// countRuns fills attempted (candidates) and failed (abandoned tasks).
func countRuns(o *outcome, shape designShape, gens int, runs []designResult) {
	o.Attempted += len(runs) * gens * shape.pop
	for _, r := range runs {
		o.Failed += r.abandoned()
	}
}

// checkSameTrajectory compares two runs of one spec generation by
// generation: population hashes and the best fitness ever found.
func checkSameTrajectory(o *outcome, what string, got, want designResult) {
	if len(got.recs) != len(want.recs) {
		o.fail("%s: %d generations, reference has %d", what, len(got.recs), len(want.recs))
		return
	}
	for i := range got.recs {
		if got.recs[i].PopHash != want.recs[i].PopHash {
			o.fail("%s: generation %d pop_hash %s, reference %s", what, i, got.recs[i].PopHash, want.recs[i].PopHash)
			return
		}
	}
	if got.res.BestDetail.Fitness != want.res.BestDetail.Fitness {
		o.fail("%s: best fitness %v, reference %v", what, got.res.BestDetail.Fitness, want.res.BestDetail.Fitness)
		return
	}
	o.notef("check    %s: %d generations, pop_hash and best fitness %.6f identical", what, len(got.recs), got.res.BestDetail.Fitness)
}

// checkBest re-scores the best sequence directly with the engine and
// compares its fitness bit for bit.
func checkBest(o *outcome, p *problem, r designResult) {
	best := r.res.Best
	scores := p.engine.ScoreMany(best, append([]int{p.target}, p.nts...), 1)
	if f := core.Fitness(scores[0], scores[1:]); f != r.res.BestDetail.Fitness {
		o.fail("best sequence re-scores to fitness %v, run reported %v", f, r.res.BestDetail.Fitness)
		return
	}
	o.notef("check    best sequence re-scored with Engine.ScoreMany: fitness %.6f identical", r.res.BestDetail.Fitness)
}

func runDesignK25(cfg config) (*outcome, error) {
	shape, gens := designK25.sized(cfg)
	p, setupTimes, err := medianSetup(repsFor(cfg), func() (*problem, error) { return newProblem(shape) }, func(*problem) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	setupS := median(setupTimes)
	o.notef("setup    %.3f s, median of %.3f", setupS, setupTimes)
	o.notef("%s", shape.describe(gens))
	dir, err := os.MkdirTemp(cfg.work, "design-k25-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return o, traceDesign(cfg, o, shape, gens, p, nil, dir)
	}
	runs, err := runDesigns(p, shape, gens, dir, nil)
	if err != nil {
		return nil, err
	}
	if err := setDesignEndToEnd(o, setupS, runs); err != nil {
		return nil, err
	}
	countRuns(o, shape, gens, runs)
	// Untimed replay of one design: the trajectory must repeat.
	i := int(uint64(cfg.seed) % uint64(shape.designs))
	ref, err := designRun{p: p, shape: shape, seed: shape.seed(i), gens: gens}.run()
	if err != nil {
		return nil, err
	}
	checkSameTrajectory(o, fmt.Sprintf("replay of design %d", i), runs[i], ref)
	for _, r := range runs {
		checkBest(o, p, r)
	}
	return o, nil
}

// netSession is a netcluster master over a problem, with its loopback
// workers running as goroutines of this process.
type netSession struct {
	p      *problem
	master *netcluster.Master
	cancel context.CancelFunc
	wg     sync.WaitGroup
	readyS float64 // master start until Master.Workers() reached the worker count
}

// readyConn marks its worker ready on the first write: a worker's first
// message is its first task request, sent after it received the Setup
// broadcast and rebuilt its engine.
type readyConn struct {
	net.Conn
	once  sync.Once
	ready *atomic.Int32
}

func (c *readyConn) Write(b []byte) (int, error) {
	c.once.Do(func() { c.ready.Add(1) })
	return c.Conn.Write(b)
}

func startNet(s designShape) (*netSession, error) {
	p, err := newProblem(s)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sess := &netSession{p: p}
	sess.master = netcluster.NewMasterOptions(netcluster.NewSetup(p.engine, p.target, p.nts, s.threads), ln,
		netcluster.Options{Metrics: obs.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	sess.cancel = cancel
	var ready atomic.Int32
	dial := func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return &readyConn{Conn: c, ready: &ready}, nil
	}
	for w := 0; w < s.workers; w++ {
		sess.wg.Add(1)
		go func() {
			defer sess.wg.Done()
			_, _ = netcluster.RunWorkerLoop(ctx, sess.master.Addr(), netcluster.WorkerOptions{Dial: dial})
		}()
	}
	deadline := time.Now().Add(2 * time.Minute)
	for sess.master.Workers() < s.workers || int(ready.Load()) < s.workers {
		if sess.readyS == 0 && sess.master.Workers() >= s.workers {
			sess.readyS = time.Since(start).Seconds()
		}
		if time.Now().After(deadline) {
			sess.close()
			return nil, fmt.Errorf("netcluster workers not ready after 2m")
		}
		time.Sleep(time.Millisecond)
	}
	if sess.readyS == 0 {
		sess.readyS = time.Since(start).Seconds()
	}
	return sess, nil
}

// close stops the workers, waits for them, then closes the master.
func (s *netSession) close() {
	s.cancel()
	s.wg.Wait()
	_ = s.master.Close()
}

func runNetclusterK2(cfg config) (*outcome, error) {
	shape, gens := netclusterK2.sized(cfg)
	sess, setupTimes, err := medianSetup(repsFor(cfg), func() (*netSession, error) { return startNet(shape) },
		func(s *netSession) { s.close() })
	if err != nil {
		return nil, err
	}
	defer sess.close()
	o := &outcome{}
	setupS := median(setupTimes)
	o.notef("setup    %.3f s, median of %.3f", setupS, setupTimes)
	o.notef("%s", shape.describe(gens))
	dir, err := os.MkdirTemp(cfg.work, "netcluster-k2-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.trace {
		return o, traceDesign(cfg, o, shape, gens, sess.p, sess, dir)
	}
	runs, err := runDesigns(sess.p, shape, gens, dir, func() evalbackend.Backend { return evalbackend.NewMaster(sess.master) })
	if err != nil {
		return nil, err
	}
	if err := setDesignEndToEnd(o, setupS, runs); err != nil {
		return nil, err
	}
	countRuns(o, shape, gens, runs)
	if q := sess.master.Stats().TasksQuarantined; q > 0 {
		o.fail("netcluster quarantined %d tasks", q)
	}
	// Untimed in-process run of one design's spec, chosen by -seed: the
	// distributed trajectory must match it.
	i := int(uint64(cfg.seed) % uint64(shape.designs))
	ref, err := designRun{p: sess.p, shape: shape, seed: shape.seed(i), gens: gens}.run()
	if err != nil {
		return nil, err
	}
	checkSameTrajectory(o, fmt.Sprintf("design %d against an in-process run of the same spec", i), runs[i], ref)
	for _, r := range runs {
		checkBest(o, sess.p, r)
	}
	return o, nil
}

// traceDesign is the traced run of a design workload. It first repeats
// the untraced production configuration, then runs the same seeds
// through a chain it assembles itself with a timing wrapper at each
// boundary:
//
//	evalbackend.chain → WithFitnessCache → leaf (cluster.round | netcluster.round)
//
// (the Designer's WithMetrics layer stays outermost, outside the spans).
// Both runs must follow the same trajectories.
func traceDesign(cfg config, o *outcome, shape designShape, gens int, p *problem, sess *netSession, dir string) error {
	var masterBackend func() evalbackend.Backend
	if sess != nil {
		masterBackend = func() evalbackend.Backend { return evalbackend.NewMaster(sess.master) }
	}
	untraced, err := runDesigns(p, shape, gens, filepath.Join(dir, "untraced"), masterBackend)
	if err != nil {
		return err
	}

	tp := p
	if sess == nil {
		// A fresh engine, so the traced run's window cache starts as
		// cold as the untraced run's did.
		if tp, err = newProblem(shape); err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	tr := newTracer()
	leafName := "cluster.round"
	if sess != nil {
		leafName = "netcluster.round"
	}
	var leafCalls, leafCands, chainCands int
	var cacheHits int64
	wc0 := tp.engine.WindowCacheStats()
	dq0, _ := tp.engine.DeltaStats()
	var ns0 netcluster.Stats
	if sess != nil {
		ns0 = sess.master.Stats()
	}
	var traced []designResult
	for i := 0; i < shape.designs; i++ {
		// Each design gets a fresh chain, as a Designer builds its own.
		var leaf evalbackend.Backend
		if sess != nil {
			leaf = evalbackend.NewMaster(sess.master)
		} else if leaf, err = evalbackend.NewPool(tp.engine, tp.target, tp.nts,
			cluster.Config{Workers: shape.workers, ThreadsPerWorker: shape.threads, Metrics: reg}); err != nil {
			return err
		}
		inner := &timedBackend{Backend: leaf, tr: tr, name: leafName}
		outer := &timedBackend{tr: tr, name: "evalbackend.chain", Backend: evalbackend.WithFitnessCache(inner,
			evalbackend.NewFitnessCache(0), core.ProblemFingerprint(tp.engine, tp.target, tp.nts))}
		r, err := designRun{p: tp, shape: shape, seed: shape.seed(i), gens: gens, metrics: reg, backend: outer,
			journal: filepath.Join(dir, fmt.Sprintf("traced-%d", i)), tr: tr}.run()
		if err != nil {
			return err
		}
		traced = append(traced, r)
		leafCalls += inner.calls
		leafCands += inner.candidates
		chainCands += outer.candidates
		cacheHits += outer.Stats().CacheHits
	}
	tr.finish()
	wc1 := tp.engine.WindowCacheStats()
	dq1, _ := tp.engine.DeltaStats()
	name := "design-k25"
	if sess != nil {
		name = "netcluster-k2"
	}
	if err := tr.write(filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))); err != nil {
		return err
	}

	countRuns(o, shape, gens, untraced)
	countRuns(o, shape, gens, traced)
	for i := range traced {
		checkSameTrajectory(o, fmt.Sprintf("traced design %d against the untraced run", i), traced[i], untraced[i])
	}

	total, self := tr.totals()
	var g float64
	var wallU, wallT time.Duration
	var journalBytes int64
	for i := range traced {
		g += float64(len(traced[i].recs))
		wallU += untraced[i].wall
		wallT += traced[i].wall
		journalBytes += traced[i].journalBytes
	}
	var gaOps time.Duration
	for _, st := range []string{obs.StageGACopy, obs.StageGAMutate, obs.StageGACrossover} {
		gaOps += reg.Histogram(st).Sum()
	}
	ckpt := reg.Histogram(obs.StageCheckpoint)
	busy := reg.Histogram(obs.StageEvalTask).Sum()
	genMS := ms(total["generation"]) / g
	leafMS := ms(total[leafName]) / float64(max(leafCalls, 1))
	unattributed := (ms(self["generation"]) - ms(gaOps) - ms(ckpt.Sum())) / g

	o.set("search.self_ms", "ms", ms(self["generation"])/g)
	o.set("search.ga_ops_ms", "ms", ms(gaOps)/g)
	o.set("evalbackend.candidates", "count", float64(chainCands))
	o.set("evalbackend.cache_hit_ratio", "ratio", float64(cacheHits)/float64(chainCands))
	o.set("evalbackend.chain_self_ms", "ms", ms(self["evalbackend.chain"])/g)
	o.set("cluster.candidates", "count", float64(leafCands)/float64(max(leafCalls, 1)))
	pairs := float64(leafCands * (1 + shape.k))
	o.set("pipe.pairs", "count", pairs)
	o.set("pipe.score_busy_ms", "ms", ms(busy)/g)
	if busy > 0 {
		o.set("pipe.pairs_per_s", "1/s", pairs/busy.Seconds())
	}
	lookups := (wc1.Hits - wc0.Hits) + (wc1.Misses - wc0.Misses)
	o.set("simindex.wincache_lookups", "count", float64(lookups))
	if lookups > 0 {
		o.set("simindex.wincache_hit_ratio", "ratio", float64(wc1.Hits-wc0.Hits)/float64(lookups))
	}
	o.set("simindex.wincache_evicted", "count", float64(wc1.Evicted-wc0.Evicted))
	o.set("simindex.delta_ratio", "ratio", float64(dq1-dq0)/float64(max(leafCands, 1)))
	if ckpt.Count() > 0 {
		o.set("obs.checkpoint_ms", "ms", ms(ckpt.Sum())/float64(ckpt.Count()))
	}
	o.set("obs.journal_bytes_per_gen", "B", float64(journalBytes)/g)
	if sess == nil {
		o.set("cluster.round_ms", "ms", leafMS)
		o.set("simindex.preprocess_ms", "ms", leafMS-ms(busy)/float64(shape.workers)/float64(max(leafCalls, 1)))
	} else {
		ns1 := sess.master.Stats()
		o.set("netcluster.round_ms", "ms", leafMS)
		o.set("netcluster.task_service_ms", "ms", float64(ns1.ServiceEWMANS)/1e6)
		o.set("netcluster.tasks_reissued", "count", float64(ns1.TasksReissued-ns0.TasksReissued))
		o.set("netcluster.leases_expired", "count", float64(ns1.LeasesExpired-ns0.LeasesExpired))
		o.set("netcluster.ready_s", "s", sess.readyS)
	}
	gpsU := g / wallU.Seconds()
	gpsT := g / wallT.Seconds()
	o.set("trace.gens_per_s_untraced", "1/s", gpsU)
	o.set("trace.gens_per_s_traced", "1/s", gpsT)
	o.set("trace.gens_per_s_ratio", "ratio", gpsT/gpsU)
	o.set("trace.unattributed_ms", "ms", unattributed)
	o.set("trace.unattributed_share", "ratio", unattributed/genMS)
	o.notef("layers   per generation %.2f ms = search self %.2f (GA operators %.2f, checkpoint %.2f, unattributed %.2f) + chain self %.2f + leaf %.2f over %d rounds",
		genMS, ms(self["generation"])/g, ms(gaOps)/g, ms(ckpt.Sum())/g, unattributed,
		ms(self["evalbackend.chain"])/g, ms(total[leafName])/g, leafCalls)
	o.notef("bases    cache_hit_ratio over %d candidates; wincache_hit_ratio over %d lookups; delta_ratio over %d leaf candidates",
		chainCands, lookups, leafCands)
	return nil
}
