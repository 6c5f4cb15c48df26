package main

import (
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"modelcc/internal/packet"
	"modelcc/internal/policy"
	"modelcc/internal/shard"
)

// TestReference measures the reference figures README.md records. It
// takes several minutes, so it runs only with ISBENCH_REFERENCE=1:
//
//	ISBENCH_REFERENCE=1 go test -run TestReference -v -timeout 30m .
//
// With ISBENCH_PROFILE=<file> it also writes a CPU profile of
// fleet-served's timed phase, for go tool pprof -top.
func TestReference(t *testing.T) {
	if os.Getenv("ISBENCH_REFERENCE") != "1" {
		t.Skip("set ISBENCH_REFERENCE=1 to measure the reference figures")
	}
	t.Run("shards", refShards)
	t.Run("support-growth", refSupportGrowth)
	t.Run("cache-hits", refCacheHits)
	t.Run("served-profile", refServedProfile)
}

// refShards times fleet-live's configuration for 30 s virtual at one
// and at two shards, alternating, and checks the digests agree.
func refShards(t *testing.T) {
	sh := liveShape
	fc := fleetConfig(sh, 1, staggerFor(1))
	var digest uint64
	for rep := 0; rep < 2; rep++ {
		for _, k := range []int{1, 2} {
			t0 := time.Now()
			sf := shard.New(shard.Config{Fleet: fc, Shards: k})
			sf.Run(30 * time.Second)
			t.Logf("K=%d rep %d: %.1f s wall per 30 s virtual", k, rep, time.Since(t0).Seconds())
			if digest == 0 {
				digest = sf.Digest()
			} else if sf.Digest() != digest {
				t.Errorf("K=%d digest %016x != %016x", k, sf.Digest(), digest)
			}
		}
	}
}

// meanSupport is the mean belief support size over a fleet's live
// members.
func meanSupport(sf *shard.Fleet) float64 {
	var sum, n float64
	for i := 0; i < sf.Slots(); i++ {
		if m := sf.MemberAt(packet.FlowID(i)); m != nil {
			sum += float64(len(m.Sender.Belief.Support()))
			n++
		}
	}
	return ratio(sum, n)
}

// refSupportGrowth logs the wall time per 5 virtual seconds and the
// mean support of a 256-member fleet over 60 s.
func refSupportGrowth(t *testing.T) {
	sh := liveShape
	sf := newFleet(sh, fleetConfig(sh, 1, staggerFor(1)), 1, 1)
	for v := 5 * time.Second; v <= 60*time.Second; v += 5 * time.Second {
		t0 := time.Now()
		sf.Run(v)
		t.Logf("N=256 t=%v: %.2f s wall for the last 5 s, mean support %.1f", v, time.Since(t0).Seconds(), meanSupport(sf))
	}
}

// refCacheHits logs the policy cache's hits and lookups of a 64-member
// fleet over 180 s and of a 16-member fleet over 60 s, with the mean
// support.
func refCacheHits(t *testing.T) {
	for _, c := range []struct {
		n int
		d time.Duration
	}{{64, 180 * time.Second}, {16, 60 * time.Second}} {
		sh := fleetShape{n: c.n, shards: 1, v: c.d}
		sf := newFleet(sh, fleetConfig(sh, 1, staggerFor(1)), 1, 1)
		for v := 15 * time.Second; v <= c.d; v += 15 * time.Second {
			sf.Run(v)
			h, m := sf.CacheStats()
			t.Logf("N=%d t=%v: %d hits of %d lookups, mean support %.1f", c.n, v, h, h+m, meanSupport(sf))
		}
	}
}

// refServedProfile profiles fleet-served's timed phase.
func refServedProfile(t *testing.T) {
	path := os.Getenv("ISBENCH_PROFILE")
	if path == "" {
		t.Skip("set ISBENCH_PROFILE to write the profile")
	}
	sh := liveShape
	fc := fleetConfig(sh, 1, staggerFor(1))
	tb := openTable(opts{seed: 1}, sh, fc, t.TempDir()+"/served.tbl", &servedState{})
	defer tb.Close()
	fc.Table = policy.NewServer(tb, nil)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		runRound(sh, fc, 1, nil)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
