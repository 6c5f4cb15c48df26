package main

import (
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/experiments"
	"modelcc/internal/stats"
)

// fig3Duration is the paper's Figure 3 run length; Fig3Claims measures
// windows up to 195 s, so the runs cannot be shortened.
const fig3Duration = 300 * time.Second

// fig3QualitySeeds is how many sub-seeds of a run feed its quality
// metrics. Every run completes at least this many rounds, so the
// quality metrics are a function of the seed alone.
const fig3QualitySeeds = 2

// fig3SubSeed is the seed of round i of a run with the given seed. The
// cost of a Figure 3 run varies with its seed by up to 2x, so each round
// runs a different seed: a run's throughput then averages over as many
// seeds as it has rounds.
func fig3SubSeed(seed int64, i int) int64 {
	return int64(mix(uint64(seed)<<20+uint64(i)) >> 33)
}

// fig3Round is one seed's Figure 3: one ISENDER per α against the
// square-wave PINGER.
type fig3Round struct {
	res    experiments.Fig3Result
	wall   time.Duration
	setups []float64
}

func runFig3Round(seed int64) fig3Round {
	var r fig3Round
	// Set-up: enumerate the §4 prior and take the cold first decision
	// over it, once per α, as RunISender does.
	for _, a := range experiments.Fig3Alphas {
		cfg := experiments.Fig3Config(a, seed, fig3Duration)
		t0 := time.Now()
		states, _ := cfg.Prior.Enumerate()
		plan := cfg.Plan
		plan.Util = cfg.Utility
		s := core.NewSender(belief.NewExact(states, cfg.BeliefCfg), plan)
		s.Wake(0, nil)
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	r.res = experiments.RunFig3(seed, fig3Duration)
	r.wall = time.Since(t0)
	report, ok := experiments.Fig3Claims(r.res)
	check(ok, "Figure 3 claims fail at seed %d:\n%s", seed, report)
	return r
}

// fig3Delays returns the one-way delay, in ms, of every delivered
// packet of a run, from its sent and acknowledged sequence series.
func fig3Delays(run experiments.ISenderResult) []float64 {
	sent := map[int64]time.Duration{}
	for _, p := range run.SentSeq.Pts {
		sent[int64(p.V)] = p.T
	}
	out := make([]float64, 0, len(run.AckedSeq.Pts))
	for _, p := range run.AckedSeq.Pts {
		at, ok := sent[int64(p.V)]
		check(ok, "packet %d acknowledged but never sent", int64(p.V))
		check(p.T >= at, "packet %d acknowledged before it was sent", int64(p.V))
		out = append(out, (p.T-at).Seconds()*1e3)
	}
	return out
}

// fig3Run is the state of a paper-fig3 run's timed phases.
type fig3Run struct {
	o              opts
	sw             stopwatch
	rounds         []fig3Round
	setups, heaps  []float64
	delays         [][]float64
	utility, rates []float64
	attempted      int64
	quality        int
}

// phase runs rounds on the run's sub-seeds 0, 1, 2, ... — count of
// them when count > 0, else until the timed wall clock has advanced by
// d (one round in short mode, and never fewer than the quality rounds)
// — and returns how many rounds it ran and its throughput. The rounds
// run different seeds whose costs differ by up to 2x, so the throughput
// is the phase's total ratio, not the median round's.
func (fr *fig3Run) phase(d time.Duration, count int) (int, float64) {
	start := fr.sw.wall
	attempted := fr.attempted
	i := 0
	for ; ; i++ {
		if count > 0 {
			if i == count {
				break
			}
		} else if i > 0 && (fr.o.short || (fr.sw.wall-start >= d && len(fr.rounds) >= fr.quality)) {
			break
		}
		fr.o.heap.begin()
		fr.sw.start()
		r := runFig3Round(fig3SubSeed(fr.o.seed, i))
		fr.sw.stop()
		fr.heaps = append(fr.heaps, fr.o.heap.lap())
		fr.setups = append(fr.setups, r.setups...)
		fr.attempted += int64(len(r.res.Runs))
		if len(fr.rounds) < fr.quality {
			for _, run := range r.res.Runs {
				fr.delays = append(fr.delays, fig3Delays(run))
				fr.utility = append(fr.utility, run.Utility/fig3Duration.Seconds())
				fr.rates = append(fr.rates, float64(run.Acked)/fig3Duration.Seconds())
			}
		}
		fr.rounds = append(fr.rounds, r)
	}
	return i, float64(fr.attempted-attempted) * fig3Duration.Seconds() / (fr.sw.wall - start).Seconds()
}

func runFig3(o opts) outcome {
	fr := &fig3Run{o: o, quality: fig3QualitySeeds}
	if o.short {
		fr.quality = 1
	}
	row := func() map[string]any {
		return map[string]any{
			"rounds":         len(fr.rounds),
			"alphas":         experiments.Fig3Alphas,
			"virtual_s":      fig3Duration.Seconds(),
			"quality_seeds":  fr.quality,
			"first_sub_seed": fig3SubSeed(o.seed, 0),
			"timed_wall_s":   fr.sw.wall.Seconds(),
			"timed_cpu_s":    fr.sw.cpu.Seconds(),
			"own_drops":      ownDrops(fr.rounds),
		}
	}
	if !o.trace {
		_, tput := fr.phase(o.seconds, 0)
		var sum float64
		for _, u := range fr.utility {
			sum += u
		}
		m := map[string]metric{
			"member_vsec_per_s":     {tput, "member-vs/s"},
			"member_vsec_per_cpu_s": {float64(fr.attempted) * fig3Duration.Seconds() / fr.sw.cpu.Seconds(), "member-vs/cpu-s"},
			"setup_s":               {median(fr.setups), "s"},
			"heap_peak_mib":         {median(fr.heaps), "MiB"},
			"utility_per_member_s":  {sum / float64(len(fr.utility)), "bit/s"},
			// One flow per run: Jain's index over one flow's rate is 1.
			"jain":         {stats.JainIndex(fr.rates[:1]), "ratio"},
			"delay_p99_ms": {meanFlowP99(fr.delays), "ms"},
		}
		return outcome{attempted: fr.attempted, metrics: m, row: row()}
	}

	// Traced: RunISender has no hook to time layers from, so the traced
	// half re-runs the untraced half's sub-seeds and reports the counts
	// their results carry; the overhead is the measured difference
	// between the halves.
	n, untraced := fr.phase(o.seconds/2, 0)
	first := len(fr.rounds)
	rt0 := readRuntime()
	_, traced := fr.phase(0, n)
	rt1 := readRuntime()
	m := map[string]metric{}
	var wakes, branches, kept int64
	var supSum, supN, supMax float64
	for _, r := range fr.rounds[first:] {
		for _, run := range r.res.Runs {
			wakes += run.Wakes
			c := run.UpdateCum
			branches += int64(c.Branches)
			kept += int64(c.Branches - c.Rejected - c.Merged - c.Floored)
			for _, p := range run.SupportSize.Pts {
				supSum += p.V
				supN++
				supMax = max(supMax, p.V)
			}
		}
	}
	// Sender.Wake updates the belief once per wake.
	m["core.wakes"] = metric{float64(wakes), "count"}
	m["belief.updates"] = metric{float64(wakes), "count"}
	m["belief.support_mean"] = metric{ratio(supSum, supN), "hyps"}
	m["belief.support_max"] = metric{supMax, "hyps"}
	m["belief.branches"] = metric{float64(branches), "count"}
	m["belief.branch_keep_ratio"] = metric{ratio(float64(kept), float64(branches)), "ratio"}
	runtimeMetrics(rt0, rt1, m)
	m["trace.overhead_ratio"] = metric{1 - traced/untraced, "ratio"}
	return outcome{attempted: fr.attempted, metrics: m, row: row()}
}

func ownDrops(rounds []fig3Round) int {
	n := 0
	for _, r := range rounds {
		for _, run := range r.res.Runs {
			n += run.OwnBufferDrops
		}
	}
	return n
}
