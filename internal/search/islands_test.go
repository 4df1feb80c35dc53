package search

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/ga"
	"repro/internal/seq"
)

func TestIslandsValidation(t *testing.T) {
	if _, err := New(Config{Islands: IslandConfig{Count: 2, Migrants: 24}}, smallParams(), countingEvaluator()); err == nil {
		t.Error("migrants >= island batch size accepted")
	}
	if err := (Config{Islands: IslandConfig{Count: 2, SyncInterval: -1}}).Validate(); err == nil {
		t.Error("negative sync interval accepted")
	}
	s, err := New(Config{Islands: IslandConfig{Count: 1}}, smallParams(), countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*islandSearcher); ok {
		t.Error("one island built the composite instead of a single population")
	}
}

// TestIslandsDivergeWithoutSync: islands that never sync are exactly
// independent searches seeded Seed + k*7919, bit for bit, and the
// composite evaluates all of them in one call per step.
func TestIslandsDivergeWithoutSync(t *testing.T) {
	params := smallParams()
	calls := 0
	eval := countingEvaluator()
	s, err := New(Config{Islands: IslandConfig{Count: 3, SyncInterval: 1000, Migrants: 1}}, params,
		ga.EvaluatorFunc(func(seqs []seq.Sequence) []float64 {
			calls++
			return eval.EvaluateAll(seqs)
		}))
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*ga.Engine, 3)
	for k := range engines {
		p := params
		p.Seed += int64(k) * 7919
		if engines[k], err = ga.New(p, countingEvaluator()); err != nil {
			t.Fatal(err)
		}
		engines[k].InitPopulation()
	}
	s.InitPopulation()
	for step := 0; step < 5; step++ {
		st := s.Step()
		best := s.Counters().IslandBest.Values()
		var want []string
		for k, e := range engines {
			est := e.Step()
			if best[k] != est.Best {
				t.Fatalf("step %d island %d: best %v, independent run %v", step, k, best[k], est.Best)
			}
			for _, ind := range e.Population() {
				want = append(want, ind.Seq.Residues())
			}
		}
		if got := popResidues(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: composite population differs from the independent islands", step)
		}
		if st.Generation != step || calls != step+1 {
			t.Fatalf("step %d: generation %d after %d evaluation calls", step, st.Generation, calls)
		}
	}
}

// TestIslandsMigrationSpreadsEliteSequences: after a sync, each
// island's next batch ends with its ring predecessor's best evaluated
// candidates, best first.
func TestIslandsMigrationSpreadsEliteSequences(t *testing.T) {
	s, err := New(Config{Islands: IslandConfig{Count: 2, SyncInterval: 1, Migrants: 2}}, smallParams(), countingEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	is := s.(*islandSearcher)
	s.InitPopulation()
	s.Step()
	for k := range is.subs {
		pop := is.subs[k].Population()
		from := (k + 1) % 2 // ring predecessor of k, with two islands
		sender := is.evaluated[from*is.size : (from+1)*is.size]
		best := 0
		for i, ind := range sender {
			if ind.Fitness > sender[best].Fitness {
				best = i
			}
		}
		if got := pop[len(pop)-2].Seq.Residues(); got != sender[best].Seq.Residues() {
			t.Errorf("island %d did not receive its predecessor's best sequence", k)
		}
	}
}

// TestIslandsStateRoundTrip: every strategy's islands checkpoint and
// restore into a fresh composite that continues bit-identically.
func TestIslandsStateRoundTrip(t *testing.T) {
	for _, name := range Strategies() {
		cfg := Config{Strategy: name, Islands: IslandConfig{Count: 2, SyncInterval: 2, Migrants: 1}}
		ref, err := New(cfg, smallParams(), countingEvaluator())
		if err != nil {
			t.Fatal(err)
		}
		ref.InitPopulation()
		for i := 0; i < 3; i++ {
			ref.Step()
		}
		state, err := ref.State()
		if err != nil {
			t.Fatal(err)
		}
		best, bestGen := ref.BestEver()
		restored, err := New(cfg, smallParams(), countingEvaluator())
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(ref.Generation(), batchSeqs(ref.Population()), best, bestGen, state); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 3; i++ {
			if a, b := ref.Step(), restored.Step(); a != b {
				t.Fatalf("%s: step %d after restore: %+v vs %+v", name, i, a, b)
			}
			if !reflect.DeepEqual(popResidues(ref), popResidues(restored)) {
				t.Fatalf("%s: populations diverge %d steps after restore", name, i+1)
			}
		}
	}
}

// TestIslandsRingMigrationCount: the composite syncs after every
// SyncInterval-th step, and only then: after each such step every
// island's next batch ends with its ring predecessor's top Migrants
// (stable-sorted by fitness); after the others it does not.
func TestIslandsRingMigrationCount(t *testing.T) {
	for _, c := range []struct{ interval, steps, want int }{{1, 4, 4}, {2, 5, 2}} {
		const migrants = 3
		s, err := New(Config{Islands: IslandConfig{Count: 2, SyncInterval: c.interval, Migrants: migrants}},
			smallParams(), countingEvaluator())
		if err != nil {
			t.Fatal(err)
		}
		is := s.(*islandSearcher)
		s.InitPopulation()
		migrations := 0
		for step := 1; step <= c.steps; step++ {
			s.Step()
			received := 0
			for k, sub := range is.subs {
				from := (k + 1) % 2 // ring predecessor of k, with two islands
				sorted := append([]ga.Individual(nil), is.evaluated[from*is.size:(from+1)*is.size]...)
				sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Fitness > sorted[j].Fitness })
				tail := sub.Population()[is.size-migrants:]
				match := true
				for m := range tail {
					match = match && tail[m].Seq.Residues() == sorted[m].Seq.Residues()
				}
				if match {
					received++
				}
			}
			synced := step%c.interval == 0
			if synced && received != 2 || !synced && received != 0 {
				t.Fatalf("interval %d step %d: %d islands received migrants, sync due %v", c.interval, step, received, synced)
			}
			if synced {
				migrations++
			}
		}
		if migrations != c.want {
			t.Errorf("interval %d: %d migrations over %d steps, want %d", c.interval, migrations, c.steps, c.want)
		}
	}
}
