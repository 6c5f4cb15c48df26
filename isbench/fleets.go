package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/chaos"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/policy"
	"modelcc/internal/shard"
	"modelcc/internal/stats"
	"modelcc/internal/units"
	"modelcc/internal/utility"
)

// fleetShape is one fleet workload's size.
type fleetShape struct {
	n, shards int
	// v is one round's virtual length.
	v     time.Duration
	churn bool
}

var (
	liveShape  = fleetShape{n: 256, shards: 1, v: 10 * time.Second}
	churnShape = fleetShape{n: 64, shards: 2, v: 20 * time.Second, churn: true}
	// The short mode keeps every mechanism and check at a size that
	// runs in about a second.
	liveShort  = fleetShape{n: 32, shards: 1, v: 6 * time.Second}
	churnShort = fleetShape{n: 16, shards: 2, v: 12 * time.Second, churn: true}
)

// Churn and shard-fault schedule of fleet-churn-k2: the lifecycle
// defaults of experiments.RunShardChurn, on a 5 s epoch so a 20 s round
// sees crashes, departures, arrivals and shard kills.
var (
	churnCfg = lifecycle.ChurnConfig{
		Epoch:      5 * time.Second,
		DepartProb: 0.04,
		CrashProb:  0.06,
		ArriveProb: 0.5,
	}
	faultCfg = shard.FaultConfig{Epoch: 5 * time.Second, KillProb: 0.1}
	ckptCfg  = shard.CheckpointConfig{Every: 2 * time.Second}
)

// rolloutWidth is the total rollout width of every fleet, split across
// shards by shard.New (at least 1 each): one, as GOMAXPROCS is one.
const rolloutWidth = 1

// mix is SplitMix64, used to derive inputs from the workload seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// staggerFor draws the fleet's start-stagger window from the seed:
// 0.9 to 1.1 fair-share packet intervals (1.8 s to 2.2 s at 6000 bit/s
// per member). A steady fleet has no other randomness, so the
// stagger, which sets every member's decision phase, is its seeded
// input. The window is kept narrow because the set-up time runs to its
// end.
func staggerFor(seed int64) time.Duration {
	fair := units.TransmitTime(packet.DefaultSizeBits, 6000)
	return fair*9/10 + time.Duration(mix(uint64(seed))%uint64(fair/5/time.Millisecond))*time.Millisecond
}

// fleetConfig is the configuration every fleet workload runs, with the
// scheduling and cache striping shard.New forces, so a policy table
// compiled on the single-loop fleet serves the sharded one.
func fleetConfig(sh fleetShape, seed int64, stagger time.Duration) fleet.Config {
	fc := fleet.Config{
		N:            sh.n,
		Seed:         seed,
		Workers:      rolloutWidth,
		Stagger:      stagger,
		LeanStats:    true,
		LeanRateFrom: sh.v / 2,
		Canonical:    true,
		CacheStripes: planner.DefaultCacheStripes,
	}
	if sh.churn {
		fc.BeliefCfg = belief.Config{Recover: true}
	}
	return fc
}

// newFleet builds a sharded fleet, arming the churn lifecycle,
// checkpoints and shard faults for a churn shape.
func newFleet(sh fleetShape, fc fleet.Config, seed int64, shards int) *shard.Fleet {
	sf := shard.New(shard.Config{Fleet: fc, Shards: shards})
	if sh.churn {
		sf.EnableCheckpoints(ckptCfg)
		sf.EnableFaults(faultCfg, chaos.Config{Seed: seed})
		cc := churnCfg
		cc.MinLive, cc.MaxLive = sh.n/4, sh.n
		sf.EnableChurn(cc, lifecycle.SupervisorConfig{}, chaos.Config{Seed: seed})
	}
	return sf
}

// round is one fleet run's results.
type round struct {
	wall, setup time.Duration
	// digest is Digest for a steady fleet, ReplayHash under churn.
	digest                      uint64
	utility, jain, delayP99     float64
	injected, dropped, received int64
	sf                          *shard.Fleet
}

// runRound builds a fleet, runs it to the end of its start stagger
// (every member has taken its first decision: the set-up time), then
// to sh.v. With recs non-nil the round is traced: members are wrapped
// as they appear, and a churn fleet is stepped one coupling window at a
// time so new generations are wrapped before they run on.
func runRound(sh fleetShape, fc fleet.Config, seed int64, recs []*layerRec) round {
	t0 := time.Now()
	sf := newFleet(sh, fc, seed, sh.shards)
	d := newDeliveries(sf, sh.v)
	sf.Recv.OnAck = d.observe
	stagger := sf.Cfg.Stagger
	traced := recs != nil
	if traced {
		sf.Run(0)
		wrapFleet(sf, recs, !sh.churn)
	}
	step := func(to time.Duration) {
		if !traced || !sh.churn {
			sf.Run(to)
			return
		}
		for sf.Now() < to {
			next := sf.Now() + sf.Delta
			if next > to {
				next = to
			}
			sf.Run(next)
			check(sf.Live() <= sh.n, "live members %d exceed MaxLive %d at %v", sf.Live(), sh.n, sf.Now())
			wrapFleet(sf, recs, false)
		}
	}
	step(stagger)
	setup := time.Since(t0)
	for i := 0; i < sh.n; i++ {
		m := sf.MemberAt(packet.FlowID(i))
		check(m == nil || m.Gen > 0 || m.Sender.Wakes > 0, "flow %d took no decision within the %v start stagger", i, stagger)
	}
	step(sh.v)
	r := round{wall: time.Since(t0), setup: setup, sf: sf}
	checkFleet(sh, sf, d, &r)
	return r
}

// deliveries is what the bottleneck's receiver saw: every delivered
// packet, of every member generation. The quality metrics are computed
// from it, per flow slot, so under churn they do not depend on which
// generations happen to be alive at the end.
type deliveries struct {
	v    time.Duration
	util utility.Config
	// delays[f] holds flow f's one-way delays in ms; late[f] counts its
	// deliveries in the second half of the round.
	delays [][]float64
	late   []float64
	// utility is Σ bits·exp(−delay/κ) over every delivery.
	utility float64
}

func newDeliveries(sf *shard.Fleet, v time.Duration) *deliveries {
	u := utility.Default()
	u.Alpha = sf.Cfg.Alpha
	return &deliveries{v: v, util: u}
}

func (d *deliveries) observe(a packet.Ack) {
	for int(a.Flow) >= len(d.delays) {
		d.delays = append(d.delays, nil)
		d.late = append(d.late, 0)
	}
	d.delays[a.Flow] = append(d.delays[a.Flow], a.Delay().Seconds()*1e3)
	if a.ReceivedAt >= d.v/2 {
		d.late[a.Flow]++
	}
	d.utility += float64(packet.DefaultSizeBits) * d.util.Discount(a.Delay())
}

// meanFlowP99 is the mean, over flows with at least one delivery, of
// each flow's 99th-percentile one-way delay. The pooled percentile is
// no use here: the coarse tier keeps the shared buffer full, so the
// pooled p99 sits exactly on the buffer's drain time in every run.
func meanFlowP99(delays [][]float64) float64 {
	var sum float64
	n := 0
	for _, d := range delays {
		if len(d) > 0 {
			sum += quantile(d, 0.99)
			n++
		}
	}
	return ratio(sum, float64(n))
}

// checkFleet checks a finished fleet's outputs against properties the
// runtime must have, from counters other than the senders' own, and
// fills in the round's quality and element counts.
func checkFleet(sh fleetShape, sf *shard.Fleet, d *deliveries, r *round) {
	v := sh.v
	// Every injected packet is delivered, dropped, or still in the
	// bottleneck. The sender side counts injections per flow over all
	// generations; the bottleneck side is read from the buffer and the
	// link.
	var inBottleneck int64
	for i := 0; i < sf.Slots(); i++ {
		flow := packet.FlowID(i)
		var inj int64
		for _, p := range sf.Parts {
			inj += p.InjectedTotal(flow)
		}
		recv := int64(sf.Recv.Received[flow])
		drop := int64(sf.Buffer.Drops[flow])
		queued := int64(sf.Buffer.Enqueued[flow] - sf.Link.Served[flow])
		check(recv == int64(sf.Link.Served[flow]), "flow %d: received %d != served %d", i, recv, sf.Link.Served[flow])
		check(inj == recv+drop+queued, "flow %d: injected %d != delivered %d + dropped %d + queued %d", i, inj, recv, drop, queued)
		r.injected += inj
		r.dropped += drop
		r.received += recv
		inBottleneck += queued
	}
	busy := int64(0)
	if sf.Link.Busy() {
		busy = 1
	}
	check(inBottleneck == int64(sf.Buffer.Len())+busy,
		"packets in the bottleneck by flow %d != buffer %d + in service %d", inBottleneck, sf.Buffer.Len(), busy)
	// The link cannot deliver faster than its rate.
	maxDeliv := int64(float64(sf.Cfg.LinkRate)*v.Seconds()/float64(packet.DefaultSizeBits)) + 1
	check(r.received <= maxDeliv, "delivered %d packets, link allows %d in %v", r.received, maxDeliv, v)

	if sh.churn {
		check(sf.Stats.CheckpointErrors == 0, "%d checkpoint errors", sf.Stats.CheckpointErrors)
		check(sf.Live() <= sh.n, "live members %d exceed MaxLive %d", sf.Live(), sh.n)
		r.digest = sf.ReplayHash()
	} else {
		// Without churn every flow has one generation, and the
		// members' own utility accounting must match the receiver's.
		var util float64
		for i := 0; i < sh.n; i++ {
			util += sf.MemberAt(packet.FlowID(i)).Utility
		}
		check(math.Abs(util-d.utility) <= 1e-9*d.utility, "members account utility %g, the receiver %g", util, d.utility)
		r.digest = sf.Digest()
	}

	// Quality, per flow slot (N of them) over the round.
	rates := make([]float64, sh.n)
	for f := 0; f < sh.n && f < len(d.late); f++ {
		rates[f] = d.late[f] / (v / 2).Seconds()
	}
	r.jain = stats.JainIndex(rates)
	r.utility = d.utility / (float64(sh.n) * v.Seconds())
	r.delayP99 = meanFlowP99(d.delays)
}

// probeShape is the fixed-input overflow probe: the smallest
// coarse-tier fleet (N > 4). fleet's own defaults size its planning
// horizon to clear the shared buffer's drain time, so it should not
// overflow the buffer; it tail-drops most of its packets. Its inputs
// never depend on the workload seed, so the share of its packets that
// are dropped is the same in every run: each round of a fleet workload
// runs it once (untimed) and counts its packets as the operations
// attempted and its drops as the operations failed.
var probeShape = fleetShape{n: 5, shards: 1, v: 10 * time.Second}

// overflowProbe runs the probe and returns its packets injected and
// dropped (operations attempted and failed).
func overflowProbe() (attempted, failed int64) {
	r := runRound(probeShape, fleetConfig(probeShape, 1, 0), 1, nil)
	return r.injected, r.dropped
}

// fleetRun is the state shared by the three fleet workloads' timed
// phases.
type fleetRun struct {
	sh        fleetShape
	fc        fleet.Config
	seed      int64
	short     bool
	attempted int64
	failed    int64
	first     *round
	rounds    int
	setups    []float64
	heaps     []float64
	sw        stopwatch
	heap      *heapSampler
}

// phase runs rounds until the timed wall clock has advanced by d (one
// round in short mode), checks that every round ends on the first
// round's digest, runs the overflow probe's operations (untimed) after
// each, and returns each round's throughput.
func (fr *fleetRun) phase(d time.Duration, recs []*layerRec, probeA, probeF int64) []float64 {
	var tput []float64
	start := fr.sw.wall
	for len(tput) == 0 || (!fr.short && fr.sw.wall-start < d) {
		fr.heap.begin()
		fr.sw.start()
		r := runRound(fr.sh, fr.fc, fr.seed, recs)
		fr.sw.stop()
		fr.heaps = append(fr.heaps, fr.heap.lap())
		if fr.first == nil {
			fr.first = &r
		}
		check(r.digest == fr.first.digest, "round %d digest %016x != first round's %016x", fr.rounds, r.digest, fr.first.digest)
		tput = append(tput, float64(fr.sh.n)*fr.sh.v.Seconds()/r.wall.Seconds())
		fr.setups = append(fr.setups, r.setup.Seconds())
		fr.rounds++
		a, f := overflowProbe()
		check(a == probeA && f == probeF, "overflow probe is not deterministic: %d/%d then %d/%d", probeF, probeA, f, a)
		fr.attempted += a
		fr.failed += f
	}
	return tput
}

// endToEnd reports an untraced fleet run's end-to-end metrics: the
// median round's throughput and set-up time, and the first round's
// quality (every round ends on the same digest).
func (fr *fleetRun) endToEnd(tput []float64) map[string]metric {
	memberVsec := float64(fr.sh.n) * fr.sh.v.Seconds() * float64(fr.rounds)
	return map[string]metric{
		"member_vsec_per_s":     {median(tput), "member-vs/s"},
		"member_vsec_per_cpu_s": {memberVsec / fr.sw.cpu.Seconds(), "member-vs/cpu-s"},
		"setup_s":               {median(fr.setups), "s"},
		"heap_peak_mib":         {median(fr.heaps), "MiB"},
		"utility_per_member_s":  {fr.first.utility, "bit/s"},
		"jain":                  {fr.first.jain, "ratio"},
		"delay_p99_ms":          {fr.first.delayP99, "ms"},
	}
}

func (fr *fleetRun) row() map[string]any {
	f := fr.first
	return map[string]any{
		"members":         fr.sh.n,
		"shards":          fr.sh.shards,
		"round_virtual_s": fr.sh.v.Seconds(),
		"rounds":          fr.rounds,
		"stagger_s":       fr.fc.Stagger.Seconds(),
		"digest":          fmt.Sprintf("%016x", f.digest),
		"injected":        f.injected,
		"dropped":         f.dropped,
		"delivered":       f.received,
		"timed_wall_s":    fr.sw.wall.Seconds(),
		"timed_cpu_s":     fr.sw.cpu.Seconds(),
	}
}

// fleetWorkload runs a fleet workload's untraced or traced phases;
// served is fleet-served's table state (nil for the live fleets).
func fleetWorkload(o opts, sh fleetShape, fc fleet.Config, served *servedState) outcome {
	probeA, probeF := overflowProbe()
	check(probeA > 0, "overflow probe injected nothing")
	fr := &fleetRun{sh: sh, fc: fc, seed: o.seed, short: o.short, heap: o.heap}
	if !o.trace {
		m := fr.endToEnd(fr.phase(o.seconds, nil, probeA, probeF))
		if served != nil {
			// The table's compile, write and open are part of what a
			// served fleet costs to start.
			m["setup_s"] = metric{median(served.setups), "s"}
		}
		if sh.churn {
			checkShardInvariance(o)
		}
		return outcome{attempted: fr.attempted, failed: fr.failed, metrics: m, row: fr.row()}
	}

	// Traced: an untraced half gives the reference digest and
	// throughput, the traced half the per-layer numbers; phase checks
	// that the traced rounds end on the reference digest.
	untraced := fr.phase(o.seconds/2, nil, probeA, probeF)
	ref := fr.first
	recs := newLayerRecs(sh.shards)
	rt0 := readRuntime()
	traced := fr.phase(o.seconds-o.seconds/2, recs, probeA, probeF)
	rt1 := readRuntime()
	m := map[string]metric{}
	layerMetrics(recs, m)
	replayMetrics(recs, m)
	runtimeMetrics(rt0, rt1, m)
	ph := lifecycle.PriorHashFor(ref.sf.Cfg, ref.sf.Caches)
	if sh.churn {
		ph = ref.sf.PriorHash()
	}
	codecMetrics(ref.sf, ph, m)
	m["trace.overhead_ratio"] = metric{1 - median(traced)/median(untraced), "ratio"}
	fleetLayerCounts(ref, m)
	if served != nil {
		m["policy.table_records"] = metric{float64(served.records), "count"}
		m["policy.compile_s"] = metric{served.compileS, "s"}
	}
	return outcome{attempted: fr.attempted, failed: fr.failed, metrics: m, row: fr.row()}
}

// fleetLayerCounts reports the shard, elements and lifecycle counts of
// one round (every round of a run is the same).
func fleetLayerCounts(r *round, m map[string]metric) {
	sf := r.sf
	var partEvents uint64
	for _, p := range sf.Parts {
		partEvents += p.Loop.Fired()
	}
	m["shard.bottleneck_events"] = metric{float64(sf.BLoop.Fired()), "count"}
	m["shard.partition_events"] = metric{float64(partEvents), "count"}
	m["elements.injected"] = metric{float64(r.injected), "count"}
	m["elements.dropped"] = metric{float64(r.dropped), "count"}
	m["elements.delivered"] = metric{float64(r.received), "count"}
	var mttr time.Duration
	recovered := 0
	for _, rec := range sf.Records {
		if rec.RecoveredAt > rec.At {
			mttr += rec.RecoveredAt - rec.At
			recovered++
		}
	}
	m["lifecycle.checkpoints"] = metric{float64(sf.Stats.Checkpoints), "count"}
	m["lifecycle.warm_restarts"] = metric{float64(sf.Stats.WarmRestarts), "count"}
	m["lifecycle.warm_failovers"] = metric{float64(sf.Failover.WarmFailovers), "count"}
	m["lifecycle.mttr_virtual_s"] = metric{ratio(mttr.Seconds(), float64(recovered)), "s"}
}

// checkShardInvariance checks, at reduced size, that the churn
// workload's replay hash is the same at one and at two shards.
func checkShardInvariance(o opts) {
	sh := churnShort
	fc := fleetConfig(sh, o.seed, staggerFor(o.seed))
	var hashes []uint64
	for _, k := range []int{1, 2} {
		sf := newFleet(sh, fc, o.seed, k)
		check(sf.K == k, "asked for %d shards, got %d", k, sf.K)
		sf.Run(sh.v)
		hashes = append(hashes, sf.ReplayHash())
	}
	check(hashes[0] == hashes[1], "replay hash at 1 shard %016x != at 2 shards %016x", hashes[0], hashes[1])
}

func runFleetLive(o opts) outcome {
	sh := liveShape
	if o.short {
		sh = liveShort
	}
	return fleetWorkload(o, sh, fleetConfig(sh, o.seed, staggerFor(o.seed)), nil)
}

func runFleetChurn(o opts) outcome {
	sh := churnShape
	if o.short {
		sh = churnShort
	}
	return fleetWorkload(o, sh, fleetConfig(sh, o.seed, staggerFor(o.seed)), nil)
}

// servedState is fleet-served's compiled table and its set-up times.
type servedState struct {
	records  int
	compileS float64
	setups   []float64
}

// servedSetupReps is how many times fleet-served sets up per untraced
// run; setup_s is their median.
const servedSetupReps = 3

// openTable compiles, writes and opens the policy table for a fleet
// configuration: the set-up a served fleet pays before it starts. The
// compile replays the same configuration and seed the served fleets
// run, for the same virtual length, so every served decision is a
// table hit.
func openTable(o opts, sh fleetShape, fc fleet.Config, path string, st *servedState) *policy.Table {
	t0 := time.Now()
	h, recs, _, err := policy.Compile(policy.CompileConfig{Fleet: fc, Seeds: []int64{o.seed}, Duration: sh.v})
	check(err == nil, "compile: %v", err)
	st.compileS = time.Since(t0).Seconds()
	st.records = len(recs)
	check(policy.WriteTable(path, h, recs) == nil, "write table")
	t, err := policy.Open(path)
	check(err == nil, "open table: %v", err)
	check(t.Len() == len(recs), "table holds %d records, compile made %d", t.Len(), len(recs))
	return t
}

func runFleetServed(o opts) outcome {
	sh := liveShape
	if o.short {
		sh = liveShort
	}
	fc := fleetConfig(sh, o.seed, staggerFor(o.seed))
	path := filepath.Join(o.dir, "served.tbl")
	st := &servedState{}
	reps := servedSetupReps
	if o.trace || o.short {
		reps = 1
	}
	// Set-up, several times: compile, write and open the table, then
	// build a served fleet and run it until every member has decided.
	var t *policy.Table
	var srv *policy.Server
	for i := 0; i < reps; i++ {
		if t != nil {
			check(t.Close() == nil, "close table")
		}
		t0 := time.Now()
		t = openTable(o, sh, fc, path, st)
		srv = policy.NewServer(t, nil)
		sfc := fc
		sfc.Table = srv
		sf := newFleet(sh, sfc, o.seed, sh.shards)
		sf.Run(sf.Cfg.Stagger)
		st.setups = append(st.setups, time.Since(t0).Seconds())
	}
	probes0, hits0, misses0 := srv.Stats()
	fc.Table = srv
	out := fleetWorkload(o, sh, fc, st)
	probes, hits, misses := srv.Stats()
	probes, hits, misses = probes-probes0, hits-hits0, misses-misses0
	check(probes > 0 && probes == hits && misses == 0,
		"served fleets probed the table %d times: %d hits, %d misses", probes, hits, misses)
	out.row["table_records"] = st.records
	out.row["table_probes"] = probes
	check(t.Close() == nil, "close table")
	check(os.Remove(path) == nil, "remove table")
	return out
}
