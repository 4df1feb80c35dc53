package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func writeTestJournal(t *testing.T, dir string, distributed bool) string {
	t.Helper()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 12; g++ {
		rec := obs.GenerationRecord{
			Generation:      g,
			BestFitness:     0.3 + 0.02*float64(g),
			MeanFitness:     0.2 + 0.02*float64(g),
			MinFitness:      0.1,
			Target:          0.4 + 0.02*float64(g),
			MaxNonTarget:    0.3,
			AvgNonTarget:    0.2,
			BestEverFitness: 0.3 + 0.02*float64(g),
			NewBest:         g%3 == 0,
			PopHash:         "deadbeefdeadbeef",
			Evaluated:       30,
			CacheHits:       10,
			EvalWallMS:      5,
			GenWallMS:       6,
			Checkpointed:    g == 10,
		}
		if distributed {
			rec.Workers = 4
			rec.TasksReissued = 1
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestReplayJournal(t *testing.T) {
	dir := writeTestJournal(t, t.TempDir(), false)
	var out strings.Builder
	dataDir := t.TempDir()
	// The run directory form (not the file path) must work too.
	if err := ReplayJournal(dir, &out, dataDir); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"12 records, generations 0-11",
		"target", "max non-tgt", "avg non-tgt", "best fitness",
		"25.0% hit rate", "1 checkpoints",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("replay output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "cluster:") {
		t.Errorf("in-process journal should not print cluster stats:\n%s", got)
	}
	// A .dat file with all four series lands in dataDir.
	ents, err := os.ReadDir(dataDir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("want one .dat file, got %v (%v)", ents, err)
	}
	data, err := os.ReadFile(filepath.Join(dataDir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"# target", "# max non-target", "# avg non-target", "# best fitness"} {
		if !strings.Contains(string(data), series) {
			t.Errorf("dat file missing series %q", series)
		}
	}
}

func TestReplayJournalDistributed(t *testing.T) {
	dir := writeTestJournal(t, t.TempDir(), true)
	var out strings.Builder
	if err := ReplayJournal(obs.JournalPath(dir), &out, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cluster: 4 workers at last record, 12 tasks reissued") {
		t.Errorf("missing cluster stats line:\n%s", out.String())
	}
}

func TestReplayJournalIslands(t *testing.T) {
	dir := t.TempDir()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 5; g++ {
		rec := obs.GenerationRecord{Generation: g, BestFitness: 0.5, Evaluated: 20}
		rec.IslandBest = obs.NewFloatList([]float64{0.1 * float64(g), 0.5})
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := ReplayJournal(dir, &out, ""); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"island 0", "0.400", "island 1", "0.500"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("replay output missing %q:\n%s", want, out.String())
		}
	}
}

func TestReplayJournalSurrogate(t *testing.T) {
	dir := t.TempDir()
	j, err := obs.OpenJournal(dir, obs.JournalOptions{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 6; g++ {
		rec := obs.GenerationRecord{
			Generation:         g,
			BestFitness:        0.3,
			BestEverFitness:    0.3,
			PopHash:            "deadbeefdeadbeef",
			Population:         40,
			Evaluated:          6,
			SurrogateEstimated: 34,
			SurrogateTrained:   6,
			SurrogateMAE:       0.05,
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := ReplayJournal(dir, &out, ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "surrogate: 204 of 240 candidates estimated (85.0%), 36 pairs trained, final fitness MAE 0.0500") {
		t.Errorf("missing surrogate accounting line:\n%s", got)
	}
}

func TestReplayJournalErrors(t *testing.T) {
	if err := ReplayJournal(filepath.Join(t.TempDir(), "nope"), &strings.Builder{}, ""); err == nil {
		t.Fatal("want error for missing journal")
	}
	// Empty journal file: no records is an error, not a silent no-op.
	dir := t.TempDir()
	if err := os.WriteFile(obs.JournalPath(dir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReplayJournal(dir, &strings.Builder{}, ""); err == nil || !strings.Contains(err.Error(), "no records") {
		t.Fatalf("want no-records error, got %v", err)
	}
}
