package main

import (
	"strings"
	"testing"
	"time"
)

func shortOpts(t *testing.T, trace bool) opts {
	return opts{seed: 1, seconds: time.Second, trace: trace, short: true, dir: t.TempDir()}
}

// TestShortWorkloads runs every workload at its small size, untraced
// and traced, with every output check, and checks that each reports
// exactly the metrics BENCHMARK.json declares.
func TestShortWorkloads(t *testing.T) {
	for _, name := range workloadOrder {
		for _, trace := range []bool{false, true} {
			if err := runOne(name, shortOpts(t, trace)); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
		}
	}
}

// TestChurnShardInvariance checks, at reduced size, that the churn
// workload's replay hash does not depend on the shard count.
func TestChurnShardInvariance(t *testing.T) {
	for _, seed := range []int64{2, 3} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("seed %d: %v", seed, r)
				}
			}()
			checkShardInvariance(opts{seed: seed})
		}()
	}
}

// TestFailedCheckFails checks that a failed output check turns into an
// error (main exits non-zero) and that an unknown workload is refused.
func TestFailedCheckFails(t *testing.T) {
	workloads["always-wrong"] = func(opts) outcome {
		check(false, "deliberately wrong output")
		return outcome{}
	}
	defer delete(workloads, "always-wrong")
	err := runOne("always-wrong", shortOpts(t, false))
	if err == nil || !strings.Contains(err.Error(), "deliberately wrong output") {
		t.Errorf("failed check returned %v", err)
	}
	if err := runOne("no-such-workload", shortOpts(t, false)); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestSeededInputs checks that the seed, and only the seed, selects a
// workload's inputs.
func TestSeededInputs(t *testing.T) {
	if staggerFor(1) != staggerFor(1) || fig3SubSeed(1, 0) != fig3SubSeed(1, 0) {
		t.Fatal("inputs differ for the same seed")
	}
	if staggerFor(1) == staggerFor(2) && staggerFor(2) == staggerFor(3) {
		t.Error("stagger does not depend on the seed")
	}
	if fig3SubSeed(1, 0) == fig3SubSeed(2, 0) || fig3SubSeed(1, 0) == fig3SubSeed(1, 1) {
		t.Error("Figure 3 sub-seeds collide")
	}
	fair := 2 * time.Second
	for s := int64(0); s < 100; s++ {
		if st := staggerFor(s); st < fair*9/10 || st >= fair*11/10 {
			t.Fatalf("seed %d: stagger %v outside [1.8 s, 2.2 s)", s, st)
		}
	}
}
