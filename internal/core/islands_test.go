package core

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/evalbackend"
	"repro/internal/ga"
	"repro/internal/netcluster"
	"repro/internal/obs"
	"repro/internal/search"
)

// islandProblem is the wet-lab target with up to five same-component
// non-targets, the problem the island model was first tested on.
func islandProblem(t testing.TB) Problem {
	pr, eng := setup(t)
	target := pr.WetlabTargetIDs()[0]
	var nts []int
	for _, id := range pr.ComponentMembers(pr.Component(target)) {
		if id != target && len(nts) < 5 {
			nts = append(nts, id)
		}
	}
	return Problem{Engine: eng, TargetID: target, NonTargetIDs: nts}
}

// islandGolden pins one island run: each island's best fitness per
// generation, the population hash of every evaluated generation (all
// islands' batches concatenated, island 0 first) and the overall best
// residues. The values were recorded from the island model's earlier
// private generation loop, so they prove the Searcher composite steps,
// seeds and migrates exactly as that loop did.
type islandGolden struct {
	name         string
	problem      func(testing.TB) Problem
	islands      search.IslandConfig
	pop, gens    int
	seed         int64
	curves       [][]float64
	hashes       []string
	bestFitness  float64
	bestResidues string
}

var islandGoldens = []islandGolden{
	{
		name:    "basics",
		problem: islandProblem,
		islands: search.IslandConfig{Count: 3, SyncInterval: 2, Migrants: 2},
		pop:     12, gens: 6, seed: 1,
		curves: [][]float64{{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}},
		hashes: []string{"f0fd661fc66788c5", "8bcfab2d3223f8e1", "949264fd0510ae43", "84ccdabfe4a3ccaf",
			"5d4266124c320415", "226e2b7ebb6e6911"},
		bestResidues: "PSQHNWEELQFLNTDNEVAKDEATEGWMPDDRYPSQEGRDKLKYLLAFVYLTSESTLNKANLSPLELNELNRLENHATPNALGFPDEKDLGTRNREYMLVKSINEVAMYHLDKVSDLFRD",
	},
	{
		name:    "netcluster",
		problem: islandProblem,
		islands: search.IslandConfig{Count: 2, SyncInterval: 2, Migrants: 1},
		pop:     10, gens: 4, seed: 99,
		curves:       [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}},
		hashes:       []string{"2c79d79a07577685", "c8cc4a9226bb0052", "4b7528e8b4cb48d6", "9a7993bc554ff2c0"},
		bestResidues: "GNPSSAQMNEVNRGGPSVETSWNLLIRKENPKSWAALQPAHPAVKKINTVTFIPARYVDSYVALHEIEESLVSSHFLAIKRKVTPDNLPPYSGKFLSRIRVFSSLNDRVIELTKNFEQES",
	},
	{
		name: "migrating",
		problem: func(t testing.TB) Problem {
			_, eng := setup(t)
			return Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}
		},
		islands: search.IslandConfig{Count: 2, SyncInterval: 1, Migrants: 3},
		pop:     24, gens: 10, seed: 2,
		curves: [][]float64{
			{0, 0.12190782772473091, 0.16995724091962972, 0.16585659349864418, 0.16995724091962972,
				0.1733266029762949, 0.20980062698225, 0.20980062698225, 0.2235376408761862, 0.2235376408761862},
			{0.12190782772473091, 0.16995724091962972, 0.16585659349864418, 0.16995724091962972, 0.1733266029762949,
				0.20980062698225, 0.20980062698225, 0.20980062698225, 0.20980062698225, 0.2235376408761862},
		},
		hashes: []string{"4312678139b5974b", "6d8da8f38229157f", "197376e4b80ecf31", "d5fea0987b71154f",
			"32294ff0c7e47572", "f6d6e8eb410b41e7", "61328fc8e18d6614", "e4979f759ed3fa18",
			"d4dd289b49d6f612", "02daa183d29f83a0"},
		bestFitness:  0.2235376408761862,
		bestResidues: "DEYKVDETTFLNDKLQMDYNQLLNLLPKLKLVAQNVEAEKSGVGVLPKYSIITRNNMMLWSDQKPVMDHGIVGISISGMNNSKGDTIASAIAIRDSEQEIHTMKIGYLQGDFQLSLASVQ",
	},
}

func (g islandGolden) opts() Options {
	opts := designOpts(g.pop, g.gens, g.seed)
	opts.Cluster = cluster.Config{Workers: 1, ThreadsPerWorker: 1}
	opts.Search = search.Config{Islands: g.islands}
	return opts
}

// runIslandGolden runs g (over backend, when non-nil) and checks the
// journal stream and result against the pinned values.
func runIslandGolden(t *testing.T, g islandGolden, backend evalbackend.Backend) {
	t.Helper()
	opts := g.opts()
	opts.Backend = backend
	var recs []obs.GenerationRecord
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) { recs = append(recs, *rec) }
	d, err := NewDesigner(g.problem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	curves := make([][]float64, g.islands.Count)
	var hashes []string
	for _, rec := range recs {
		for k, f := range rec.IslandBest.Values() {
			curves[k] = append(curves[k], f)
		}
		hashes = append(hashes, rec.PopHash)
	}
	if !reflect.DeepEqual(curves, g.curves) {
		t.Errorf("%s: island curves\ngot:  %v\nwant: %v", g.name, curves, g.curves)
	}
	if !reflect.DeepEqual(hashes, g.hashes) {
		t.Errorf("%s: population hashes\ngot:  %v\nwant: %v", g.name, hashes, g.hashes)
	}
	if res.Best.Residues() != g.bestResidues || res.BestDetail.Fitness != g.bestFitness {
		t.Errorf("%s: best %v %q, want %v %q", g.name, res.BestDetail.Fitness, res.Best.Residues(),
			g.bestFitness, g.bestResidues)
	}
}

func TestIslandsMatchGolden(t *testing.T) {
	for _, g := range islandGoldens {
		runIslandGolden(t, g, nil)
	}
}

// TestIslandsNetclusterMatchesGolden: the same islands evaluated by one
// distributed master with two loopback TCP workers reproduce the pinned
// trajectories bit for bit.
func TestIslandsNetclusterMatchesGolden(t *testing.T) {
	for _, g := range islandGoldens {
		p := g.problem(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m := netcluster.NewMaster(netcluster.NewSetup(p.Engine, p.TargetID, p.WireNonTargetIDs(), 1), ln)
		ctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				netcluster.RunWorkerLoop(ctx, m.Addr(), netcluster.WorkerOptions{})
			}()
		}
		runIslandGolden(t, g, evalbackend.NewMaster(m))
		m.Close()
		stop()
		wg.Wait()
	}
}

// TestIslandsRunBasics: a three-island run reports every generation,
// observes each island in every one, and its best design is the best
// any island evaluated.
func TestIslandsRunBasics(t *testing.T) {
	g := islandGoldens[0]
	opts := g.opts()
	var recs []obs.GenerationRecord
	opts.OnJournalRecord = func(rec *obs.GenerationRecord) { recs = append(recs, *rec) }
	d, err := NewDesigner(g.problem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 6 || len(recs) != 6 {
		t.Fatalf("%d generations, %d journal records; want 6", res.Generations, len(recs))
	}
	best := -1.0
	for _, rec := range recs {
		vals := rec.IslandBest.Values()
		if len(vals) != 3 {
			t.Fatalf("gen %d: island_best %v, want 3 islands", rec.Generation, vals)
		}
		for _, f := range vals {
			if f > best {
				best = f
			}
		}
	}
	if res.BestDetail.Fitness != best {
		t.Errorf("best fitness %v, best any island evaluated %v", res.BestDetail.Fitness, best)
	}
	if res.Best.Len() != 120 {
		t.Errorf("best sequence length %d", res.Best.Len())
	}
}

// TestIslandsRunDeterministic: an island run repeats bit for bit under
// a fixed seed and changes with the seed.
func TestIslandsRunDeterministic(t *testing.T) {
	run := func(seed int64) (Result, []string) {
		opts := designOpts(10, 4, seed)
		opts.Cluster = cluster.Config{Workers: 1, ThreadsPerWorker: 1}
		opts.Search = search.Config{Islands: search.IslandConfig{Count: 2, SyncInterval: 2, Migrants: 1}}
		var hashes []string
		opts.OnJournalRecord = func(rec *obs.GenerationRecord) { hashes = append(hashes, rec.PopHash) }
		d, err := NewDesigner(islandProblem(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, hashes
	}
	a, aHashes := run(7)
	b, bHashes := run(7)
	if a.BestDetail != b.BestDetail || a.Best.Residues() != b.Best.Residues() || !reflect.DeepEqual(aHashes, bHashes) {
		t.Error("island run not deterministic under a fixed seed")
	}
	if c, _ := run(8); c.Best.Residues() == a.Best.Residues() {
		t.Error("different seeds produced identical results")
	}
}

// TestIslandsJournal: an island run journals one record per generation
// for the whole composite, with the candidate conservation law over all
// islands and each island's best fitness in island_best.
func TestIslandsJournal(t *testing.T) {
	g := islandGoldens[2]
	dir := t.TempDir()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	opts := g.opts()
	opts.Journal = j
	p := g.problem(t)
	if _, err := Design(p.Engine, p.TargetID, p.NonTargetIDs, opts); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJournal(obs.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != g.gens {
		t.Fatalf("journal has %d records, want %d", len(recs), g.gens)
	}
	total := g.islands.Count * g.pop
	for gen, rec := range recs {
		if rec.Generation != gen || rec.Population != total || rec.AccountedCandidates() != total {
			t.Fatalf("gen %d: record %+v does not account for %d candidates", gen, rec, total)
		}
		best := rec.IslandBest.Values()
		if len(best) != g.islands.Count {
			t.Fatalf("gen %d: island_best %v, want %d islands", gen, best, g.islands.Count)
		}
		max := best[0]
		for _, f := range best[1:] {
			if f > max {
				max = f
			}
		}
		if rec.BestFitness != max {
			t.Fatalf("gen %d: best fitness %v is not the best island's %v", gen, rec.BestFitness, best)
		}
	}
}

func TestIslandsRunContextCancel(t *testing.T) {
	g := islandGoldens[2]
	opts := g.opts()
	opts.Termination = ga.Termination{MaxGenerations: 50}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := NewDesigner(g.problem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := d.RunContext(ctx); !errors.Is(err, context.Canceled) || res.Generations != 0 {
		t.Fatalf("pre-cancelled run: %d generations, err %v", res.Generations, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	opts.OnGeneration = func(cp CurvePoint) {
		if cp.Generation == 2 {
			cancel()
		}
	}
	d, err = NewDesigner(g.problem(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunContext(ctx)
	if !errors.Is(err, context.Canceled) || res.Generations != 3 {
		t.Fatalf("cancel at generation 2: %d generations, err %v", res.Generations, err)
	}
	if res.Best.Len() == 0 {
		t.Fatal("partial result lost the best individual")
	}
}

// islandBeam is three beam islands (batch 7 each) syncing every two
// generations.
var islandBeam = search.Config{
	Strategy: search.StrategyBeam,
	Beam:     search.BeamConfig{Width: 2, Expand: 3, EliteExtra: 1},
	Islands:  search.IslandConfig{Count: 3, SyncInterval: 2, Migrants: 2},
}

// TestIslandsBeamResumeBitIdentical: a beam island run interrupted at
// generation 6 (a sync boundary) and resumed from its checkpoint matches an uninterrupted
// run: curve, best, final population and every journal pop_hash.
func TestIslandsBeamResumeBitIdentical(t *testing.T) {
	opts := designOpts(12, 12, 31)
	opts.Search = islandBeam
	fullDir, resumedDir := t.TempDir(), t.TempDir()
	full, fullHash := runFull(t, opts, fullDir)
	resumed, resumedHash := runInterruptedThenResumed(t, opts, resumedDir, 6)
	assertBitIdentical(t, full, resumed, fullHash, resumedHash, fullDir, resumedDir)
}

// TestIslandsResumeRejectsMismatch: island and single-population
// checkpoints are not interchangeable, and an island checkpoint resumes
// only under the same island count, sync interval and migrants.
func TestIslandsResumeRejectsMismatch(t *testing.T) {
	_, eng := setup(t)
	islands := search.Config{Islands: search.IslandConfig{Count: 2, SyncInterval: 1, Migrants: 2}}
	islandCP := runCheckpointed(t, islands, 4, t.TempDir())
	singleCP := runCheckpointed(t, search.Config{}, 4, t.TempDir())
	if islandCP.Islands != 2 || singleCP.Islands != 0 {
		t.Fatalf("checkpoints tagged with %d and %d islands, want 2 and 0", islandCP.Islands, singleCP.Islands)
	}
	cases := []struct {
		name string
		cp   obs.Checkpoint
		sc   search.Config
		pop  int
		want string
	}{
		{"island checkpoint, single designer", islandCP, search.Config{}, 24, "islands"},
		{"single checkpoint, island designer", singleCP, islands, 6, "islands"},
		{"island count", islandCP, search.Config{Islands: search.IslandConfig{Count: 3, Migrants: 2}}, 8, "islands"},
		{"sync interval", islandCP, search.Config{Islands: search.IslandConfig{Count: 2, SyncInterval: 3, Migrants: 2}}, 12, "island shape"},
		{"migrants", islandCP, search.Config{Islands: search.IslandConfig{Count: 2, SyncInterval: 1, Migrants: 1}}, 12, "island shape"},
	}
	for _, c := range cases {
		// Population sizes are chosen so the total batch matches the
		// checkpoint's: the island checks, not the size check, must fire.
		opts := designOpts(c.pop, 8, 99)
		opts.Search = c.sc
		d, err := NewDesigner(Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Resume(c.cp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Resume error = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
