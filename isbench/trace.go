package main

import (
	"bytes"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/shard"
)

// The traced run times each layer from outside, around the calls into
// its public functions:
//
//   - belief: timedBelief decorates a member's Sender.Belief;
//   - planner: a zero-budget planner.Guard over the member's cache
//     stripe whose Compiled rung is timedPolicy, which always misses,
//     so the Guard decides through the same PolicyCache.Decide call
//     the bare stripe would;
//   - policy: timedPolicy wraps the policy.Server the Guard probes;
//   - core: a wake is the span from its belief update to its last
//     decision (Sender.Wake itself cannot be wrapped);
//   - model, the planner's per-hypothesis cost and the lifecycle codec:
//     replays of inputs captured during the traced run.
//
// None of the wrappers changes a decision, so the traced run must end
// on the untraced run's digest; the benchmark checks that it does.

// maxSamples bounds the inputs captured for the replays; sampleEvery
// spaces the captures out over the run.
const (
	maxSamples  = 48
	sampleEvery = 97
)

// layerRec holds one partition's samples. Only the goroutine running
// that partition touches it while a window runs.
type layerRec struct {
	wakeNs             []int64
	acks               int64
	wakeOpen           bool
	wakeStart, wakeEnd time.Time

	updNs          []int64
	supSum         float64
	supMax         int
	branches, kept int64

	decNs     []int64
	decHits   int64
	decTotal  time.Duration
	probeNs   []int64
	probeHits int64

	nUpd, nDec int
	decides    []decideSample
	advances   []advanceSample
}

func newLayerRec() *layerRec {
	// decides never grows past maxSamples, so timedPolicy may keep a
	// pointer into it.
	return &layerRec{decides: make([]decideSample, 0, maxSamples)}
}

func newLayerRecs(k int) []*layerRec {
	recs := make([]*layerRec, k)
	for i := range recs {
		recs[i] = newLayerRec()
	}
	return recs
}

// closeWake ends the partition's open wake span.
func (r *layerRec) closeWake() {
	if r.wakeOpen {
		r.wakeNs = append(r.wakeNs, r.wakeEnd.Sub(r.wakeStart).Nanoseconds())
		r.wakeOpen = false
	}
}

// decideSample is one decision's inputs, deep-copied, and what the
// live path answered.
type decideSample struct {
	sup     []belief.Hypothesis
	pending []model.Send
	now     time.Duration
	plan    planner.Config
	// live marks a decision the planner computed for exactly this
	// input (a cache miss), so a replay must reproduce it.
	live bool
	d    planner.Decision
}

// advanceSample is one hypothesis as a belief update found it.
type advanceSample struct {
	s       model.State
	until   time.Duration
	pending []model.Send
}

func cloneSupport(sup []belief.Hypothesis) []belief.Hypothesis {
	out := make([]belief.Hypothesis, len(sup))
	for i, h := range sup {
		out[i] = belief.Hypothesis{S: h.S.Clone(), W: h.W}
	}
	return out
}

// timedBelief times a member's belief updates.
type timedBelief struct {
	belief.Belief
	rec *layerRec
}

func (b *timedBelief) Update(now time.Duration, acks []packet.Ack) belief.UpdateStats {
	r := b.rec
	r.nUpd++
	if r.nUpd%sampleEvery == 0 && len(r.advances) < maxSamples {
		if sup := b.Support(); len(sup) > 0 {
			r.advances = append(r.advances, advanceSample{
				s:       sup[0].S.Clone(),
				until:   now,
				pending: append([]model.Send(nil), b.PendingSends()...),
			})
		}
	}
	start := time.Now()
	r.closeWake()
	st := b.Belief.Update(now, acks)
	end := time.Now()
	r.wakeOpen, r.wakeStart, r.wakeEnd = true, start, end
	r.acks += int64(len(acks))
	r.updNs = append(r.updNs, end.Sub(start).Nanoseconds())
	r.supSum += float64(st.N)
	if st.N > r.supMax {
		r.supMax = st.N
	}
	r.branches += int64(st.Branches)
	r.kept += int64(st.Branches - st.Rejected - st.Merged - st.Floored)
	return st
}

// timedPolicy is a Guard's Compiled rung in the traced run. Around a
// policy.Server (inner) it times the table probe; with no inner policy
// it always misses. Either way it times the live decision that follows
// a miss, which ends in RecordMiss.
type timedPolicy struct {
	inner  planner.CompiledPolicy
	rec    *layerRec
	stripe *planner.PolicyCache
	plan   planner.Config

	t0             time.Time
	open           bool
	hits0, misses0 int
	sample         *decideSample
}

func (p *timedPolicy) Probe(sup []belief.Hypothesis, pending []model.Send, now time.Duration) (planner.Decision, bool) {
	r := p.rec
	r.nDec++
	var s *decideSample
	if r.nDec%sampleEvery == 0 && len(r.decides) < maxSamples && len(sup) > 0 {
		cfg := p.plan
		cfg.Pool, cfg.Workers = nil, 1
		r.decides = append(r.decides, decideSample{
			sup:     cloneSupport(sup),
			pending: append([]model.Send(nil), pending...),
			now:     now,
			plan:    cfg,
		})
		s = &r.decides[len(r.decides)-1]
	}
	start := time.Now()
	if p.inner != nil {
		d, ok := p.inner.Probe(sup, pending, now)
		end := time.Now()
		r.probeNs = append(r.probeNs, end.Sub(start).Nanoseconds())
		r.wakeEnd = end
		if ok {
			r.probeHits++
			return d, true
		}
		start = end
	}
	p.t0, p.open, p.sample = start, true, s
	if p.stripe != nil {
		p.hits0, p.misses0 = p.stripe.Hits, p.stripe.Misses
	}
	return planner.Decision{}, false
}

func (p *timedPolicy) RecordMiss(sup []belief.Hypothesis, pending []model.Send, now time.Duration, d planner.Decision) {
	end := time.Now()
	r := p.rec
	if p.open {
		el := end.Sub(p.t0)
		r.decNs = append(r.decNs, el.Nanoseconds())
		r.decTotal += el
		live := true
		if p.stripe != nil {
			if p.stripe.Hits > p.hits0 {
				r.decHits++
			}
			live = p.stripe.Misses > p.misses0
		}
		if p.sample != nil {
			p.sample.live, p.sample.d = live, d
		}
		p.open, p.sample = false, nil
	}
	r.wakeEnd = end
	if p.inner != nil {
		p.inner.RecordMiss(sup, pending, now, d)
	}
}

// wrapMember installs the traced-run wrappers on a member (idempotent).
// The belief decorator is left out where the lifecycle layer must
// type-switch on the concrete belief (checkpoints, health sweeps).
func wrapMember(m *fleet.Member, rec *layerRec, withBelief bool) {
	s := m.Sender
	if _, ok := s.Belief.(*timedBelief); withBelief && !ok {
		s.Belief = &timedBelief{Belief: s.Belief, rec: rec}
	}
	g := s.Guard
	if g == nil {
		// A zero-budget Guard over the member's stripe decides through
		// the same PolicyCache.Decide call as the bare stripe.
		g = planner.NewGuard(0, s.Cache)
		s.Guard, s.Cache = g, nil
	}
	if _, ok := g.Compiled.(*timedPolicy); !ok {
		g.Compiled = &timedPolicy{inner: g.Compiled, rec: rec, stripe: g.Cache, plan: s.Plan}
	}
}

// partitionOf reports the index of the partition hosting flow's live
// member (-1 when vacant).
func partitionOf(sf *shard.Fleet, flow packet.FlowID) int {
	for i, p := range sf.Parts {
		if p.MemberAt(flow) != nil {
			return i
		}
	}
	return -1
}

// wrapFleet wraps every live, not yet wrapped member of sf, each with
// its hosting partition's recorder.
func wrapFleet(sf *shard.Fleet, recs []*layerRec, withBelief bool) {
	for i := 0; i < sf.Slots(); i++ {
		flow := packet.FlowID(i)
		m := sf.MemberAt(flow)
		if m == nil || m.Retired() {
			continue
		}
		wrapMember(m, recs[partitionOf(sf, flow)], withBelief)
	}
}

// layerMetrics merges the partitions' recorders into the core, belief,
// planner, policy and shard metrics.
func layerMetrics(recs []*layerRec, m map[string]metric) {
	var wake, upd, dec, probe []int64
	var acks, branches, kept, decHits, probeHits int64
	var supSum float64
	supMax := 0
	var partMax, partSum time.Duration
	for _, r := range recs {
		r.closeWake()
		wake = append(wake, r.wakeNs...)
		upd = append(upd, r.updNs...)
		dec = append(dec, r.decNs...)
		probe = append(probe, r.probeNs...)
		acks += r.acks
		branches += r.branches
		kept += r.kept
		decHits += r.decHits
		probeHits += r.probeHits
		supSum += r.supSum
		if r.supMax > supMax {
			supMax = r.supMax
		}
		var probeTotal time.Duration
		for _, v := range r.probeNs {
			probeTotal += time.Duration(v)
		}
		part := r.decTotal + probeTotal
		partSum += part
		if part > partMax {
			partMax = part
		}
	}
	wakeUs := durations(wake, time.Microsecond)
	m["core.wakes"] = metric{float64(len(wake)), "count"}
	m["core.acks_per_wake"] = metric{ratio(float64(acks), float64(len(wake))), "ratio"}
	m["core.wake_us_p50"] = metric{quantile(wakeUs, 0.5), "us"}
	m["core.wake_us_p99"] = metric{quantile(wakeUs, 0.99), "us"}

	updUs := durations(upd, time.Microsecond)
	var updTotal float64
	for _, v := range upd {
		updTotal += float64(v) / 1e9
	}
	m["belief.updates"] = metric{float64(len(upd)), "count"}
	m["belief.update_us_p50"] = metric{quantile(updUs, 0.5), "us"}
	m["belief.update_us_p99"] = metric{quantile(updUs, 0.99), "us"}
	m["belief.update_s"] = metric{updTotal, "s"}
	m["belief.support_mean"] = metric{ratio(supSum, float64(len(upd))), "hyps"}
	m["belief.support_max"] = metric{float64(supMax), "hyps"}
	m["belief.branches"] = metric{float64(branches), "count"}
	m["belief.branch_keep_ratio"] = metric{ratio(float64(kept), float64(branches)), "ratio"}

	decUs := durations(dec, time.Microsecond)
	var decTotal float64
	for _, v := range dec {
		decTotal += float64(v) / 1e9
	}
	m["planner.decisions"] = metric{float64(len(dec)), "count"}
	m["planner.decide_us_p50"] = metric{quantile(decUs, 0.5), "us"}
	m["planner.decide_us_p99"] = metric{quantile(decUs, 0.99), "us"}
	m["planner.decide_s"] = metric{decTotal, "s"}
	m["planner.cache_hit_ratio"] = metric{ratio(float64(decHits), float64(len(dec))), "ratio"}

	probeNs := durations(probe, time.Nanosecond)
	m["policy.probes"] = metric{float64(len(probe)), "count"}
	m["policy.hit_ratio"] = metric{ratio(float64(probeHits), float64(len(probe))), "ratio"}
	m["policy.probe_ns_p50"] = metric{quantile(probeNs, 0.5), "ns"}
	m["policy.probe_ns_p99"] = metric{quantile(probeNs, 0.99), "ns"}

	m["shard.partition_decide_s_max"] = metric{partMax.Seconds(), "s"}
	m["shard.decide_imbalance"] = metric{ratio(partMax.Seconds(), partSum.Seconds()/float64(len(recs))), "ratio"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayMetrics replays the captured inputs through the planner with
// the cache bypassed and through the model, and checks that every
// replayed live decision equals the one the run took.
func replayMetrics(recs []*layerRec, m map[string]metric) {
	var nsPerHC []float64
	var events int
	var runTime time.Duration
	var adv []float64
	for _, r := range recs {
		for i := range r.decides {
			s := &r.decides[i]
			t0 := time.Now()
			d := planner.Decide(cloneSupport(s.sup), s.pending, s.now, 0, s.plan)
			el := time.Since(t0)
			if s.live {
				check(d.SendNow == s.d.SendNow && d.WakeAt == s.d.WakeAt,
					"replayed decision at %v differs from the live one (%v,%v vs %v,%v)",
					s.now, d.SendNow, d.WakeAt, s.d.SendNow, s.d.WakeAt)
			}
			hyps := len(s.sup)
			if s.plan.MaxHyps > 0 && hyps > s.plan.MaxHyps {
				hyps = s.plan.MaxHyps
			}
			if d.Candidates > 0 {
				nsPerHC = append(nsPerHC, float64(el.Nanoseconds())/float64(hyps*d.Candidates))
			}
			horizon := s.plan.Horizon
			for _, h := range s.sup {
				st := h.S.Clone()
				var ev []model.Event
				t1 := time.Now()
				st.Run(s.now+horizon, s.pending, &ev)
				runTime += time.Since(t1)
				events += len(ev)
			}
		}
		for _, a := range r.advances {
			t0 := time.Now()
			model.AdvanceEnum(a.s, a.until, a.pending)
			adv = append(adv, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m["planner.decide_ns_per_hyp_cand"] = metric{median(nsPerHC), "ns"}
	m["model.run_events_per_s"] = metric{ratio(float64(events), runTime.Seconds()), "1/s"}
	m["model.advance_us"] = metric{median(adv), "us"}
}

// codecMetrics times the lifecycle checkpoint codec on up to 32 of
// sf's live members — Capture, Encode, Decode, RestoreSender with the
// hosting partition as the MemberHost — and checks the round trip.
func codecMetrics(sf *shard.Fleet, priorHash uint64, m map[string]metric) {
	var enc, dec, res []float64
	var bytesSum float64
	n := 0
	for i := 0; i < sf.Slots() && n < 32; i++ {
		flow := packet.FlowID(i)
		mem := sf.MemberAt(flow)
		if mem == nil || mem.Retired() {
			continue
		}
		host := sf.Parts[partitionOf(sf, flow)]
		ck, err := lifecycle.Capture(mem, priorHash)
		check(err == nil, "capture flow %d: %v", flow, err)
		t0 := time.Now()
		b := ck.Encode()
		t1 := time.Now()
		ck2, err := lifecycle.Decode(b)
		t2 := time.Now()
		check(err == nil, "decode flow %d: %v", flow, err)
		s, err := lifecycle.RestoreSender(host, ck2, priorHash)
		t3 := time.Now()
		check(err == nil, "restore flow %d: %v", flow, err)
		check(bytes.Equal(ck2.Encode(), b), "flow %d: checkpoint does not round-trip", flow)
		check(s.NextSeq() == mem.Sender.NextSeq() && s.Sent == mem.Sender.Sent,
			"flow %d: restored sender counters differ", flow)
		enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/1e3)
		dec = append(dec, float64(t2.Sub(t1).Nanoseconds())/1e3)
		res = append(res, float64(t3.Sub(t2).Nanoseconds())/1e3)
		bytesSum += float64(len(b))
		n++
	}
	m["lifecycle.ckpt_bytes_mean"] = metric{ratio(bytesSum, float64(n)), "bytes"}
	m["lifecycle.encode_us"] = metric{median(enc), "us"}
	m["lifecycle.decode_us"] = metric{median(dec), "us"}
	m["lifecycle.restore_us"] = metric{median(res), "us"}
}
