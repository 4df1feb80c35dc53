package core

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/evalbackend"
)

func TestMultiFitnessFormula(t *testing.T) {
	cases := []struct {
		targets []float64
		nts     []float64
		want    float64
	}{
		{nil, nil, 0},
		{[]float64{0.8}, nil, 0.8},
		{[]float64{0.8, 0.4}, nil, 0.4},                  // bottleneck target
		{[]float64{0.8, 0.4}, []float64{0.5}, 0.5 * 0.4}, // off-target penalty
		{[]float64{1, 1}, []float64{1}, 0},               // total off-target
		{[]float64{0.6}, []float64{0.1, 0.3}, 0.7 * 0.6}, // max non-target rules
	}
	for i, c := range cases {
		if got := MultiFitness(c.targets, c.nts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: MultiFitness = %f, want %f", i, got, c.want)
		}
	}
}

func TestMultiFitnessReducesToSingle(t *testing.T) {
	// With one target, MultiFitness must equal Fitness.
	f := func(traw, nraw uint16) bool {
		target := float64(traw) / 65535
		nt := float64(nraw) / 65535
		a := MultiFitness([]float64{target}, []float64{nt})
		b := Fitness(target, []float64{nt})
		return math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultiFitnessMonotoneInWeakestLink(t *testing.T) {
	f := func(araw, braw uint16) bool {
		a := float64(araw) / 65535
		b := float64(braw) / 65535
		// Raising the weaker target cannot lower fitness.
		lo, hi := math.Min(a, b), math.Max(a, b)
		base := MultiFitness([]float64{lo, hi}, nil)
		raised := MultiFitness([]float64{math.Min(lo+0.1, 1), hi}, nil)
		return raised >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDesignMultiValidation(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(10, 2, 1)
	if _, err := DesignMulti(nil, []int{0}, nil, opts); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := DesignMulti(eng, nil, nil, opts); err == nil {
		t.Error("empty target set accepted")
	}
	if _, err := DesignMulti(eng, []int{0, 1}, []int{1}, opts); err == nil {
		t.Error("overlapping target/non-target accepted")
	}
}

func TestDesignMultiRuns(t *testing.T) {
	pr, eng := setup(t)
	targets := []int{0, 1}
	nts := []int{5, 6, 7}
	opts := designOpts(20, 5, 9)
	opts.WarmStart = true
	res, err := DesignMulti(eng, targets, nts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 5 {
		t.Errorf("generations %d", res.Generations)
	}
	det := res.BestDetail
	if len(det.TargetScores) != 2 {
		t.Fatalf("target scores %v", det.TargetScores)
	}
	min := math.Min(det.TargetScores[0], det.TargetScores[1])
	if math.Abs(det.MinTarget-min) > 1e-12 {
		t.Errorf("MinTarget %f != min(scores) %f", det.MinTarget, min)
	}
	wantFit := (1 - det.MaxNonTarget) * det.MinTarget
	if math.Abs(det.Fitness-wantFit) > 1e-9 {
		t.Errorf("fitness %f != decomposition %f", det.Fitness, wantFit)
	}
	if res.Best.Len() != opts.GA.SeqLen {
		t.Errorf("best length %d", res.Best.Len())
	}
	_ = pr
}

func TestDesignMultiDeterministic(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(12, 3, 21)
	a, err := DesignMulti(eng, []int{2, 3}, []int{9}, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DesignMulti(eng, []int{2, 3}, []int{9}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Residues() != b.Best.Residues() {
		t.Error("multi-target design not deterministic under seed")
	}
}

// TestDesignMultiMatchesGolden pins TestDesignMultiRuns' configuration to
// the values the multi-target path produced before it ran through the
// Designer: same best, same decomposition, same generation count.
func TestDesignMultiMatchesGolden(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(20, 5, 9)
	opts.WarmStart = true
	res, err := DesignMulti(eng, []int{0, 1}, []int{5, 6, 7}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := MultiDetail{
		Fitness:      0.2543476637770219,
		TargetScores: []float64{0.6582542896440355, 0.4488200038542042},
		MinTarget:    0.4488200038542042,
		MaxNonTarget: 0.43329695291468145,
		AvgNonTarget: 0.3980405988203137,
	}
	const wantBest = "ILTVPVIYFKNEIIKLKPSAPHVKIAAAYKLSDSQDLGDLSLQHTFVISRQNTETRVRCFQEYPSPDITFEDNRILHDQHTFIPDTDVDALPGSENNELKLFMLMPKAARGSGGSDLHLR"
	if res.Best.Residues() != wantBest || !reflect.DeepEqual(res.BestDetail, want) || res.Generations != 5 {
		t.Errorf("got best %q detail %+v after %d generations\nwant %q %+v after 5",
			res.Best.Residues(), res.BestDetail, res.Generations, wantBest, want)
	}
}

// TestProblemFingerprintTargets: single-target problems keep
// ProblemFingerprint (so existing checkpoints still resume), and a
// multi-target problem never shares a fingerprint with the
// single-target problem of the same wire layout.
func TestProblemFingerprintTargets(t *testing.T) {
	_, eng := setup(t)
	single := Problem{Engine: eng, TargetID: 0, NonTargetIDs: []int{1, 2}}
	if got := single.fingerprint(); got != ProblemFingerprint(eng, 0, []int{1, 2}) || got != 0xf242f339f13bbc4a {
		t.Errorf("single-target fingerprint %016x changed", got)
	}
	multi := Problem{Engine: eng, TargetID: 0, ExtraTargetIDs: []int{1}, NonTargetIDs: []int{2}}
	sameWire := Problem{Engine: eng, TargetID: 0, NonTargetIDs: multi.WireNonTargetIDs()}
	if multi.fingerprint() == sameWire.fingerprint() {
		t.Error("multi-target problem shares the fingerprint of its single-target wire layout")
	}
	d, err := NewDesigner(multi, designOpts(10, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d.ProblemFP() != multi.fingerprint() {
		t.Error("Designer does not stamp the multi-target fingerprint")
	}
}

// TestMultiTargetRejectsSingleTargetBackend: a backend built for the
// single-target layout cannot score the extra targets; the run fails
// with an error instead of slicing past the scores it returned.
func TestMultiTargetRejectsSingleTargetBackend(t *testing.T) {
	_, eng := setup(t)
	opts := designOpts(10, 2, 1)
	pb, err := evalbackend.NewPool(eng, 0, []int{5}, opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = pb
	if _, err := DesignMulti(eng, []int{0, 1, 2}, []int{5}, opts); err == nil || !strings.Contains(err.Error(), "extra targets") {
		t.Fatalf("err = %v, want the wire-layout error", err)
	}
}
