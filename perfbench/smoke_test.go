package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWorkloadsTiny runs every workload, untraced and traced, at smoke
// size with its output checks on: every declared metric must be
// reported and every check must pass.
func TestWorkloadsTiny(t *testing.T) {
	dir := t.TempDir()
	insipsd := filepath.Join(dir, "insipsd")
	if out, err := exec.Command("go", "build", "-o", insipsd, "repro/cmd/insipsd").CombinedOutput(); err != nil {
		t.Fatalf("building insipsd: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 3, seconds: 1, trace: trace, tiny: true, insipsd: insipsd, work: dir}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if err := finalize(out, trace); err != nil {
				t.Errorf("%s trace=%t: %v", name, trace, err)
			}
			if len(out.problems) > 0 || out.Failed > 0 {
				t.Errorf("%s trace=%t: %d failed operations, checks: %v", name, trace, out.Failed, out.problems)
			}
			if !trace && out.Metrics["gens_per_s"].Value <= 0 {
				t.Errorf("%s: gens_per_s = %v", name, out.Metrics["gens_per_s"].Value)
			}
		}
	}
}

// TestSelfTime checks the span arithmetic: a parent's self time is its
// duration minus the union of its children, clipped to the parent.
func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}
