package main

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/workload"
)

// runResult is everything a run measured, before it becomes metrics.
type runResult struct {
	setups []time.Duration
	// The host's slowdown around each set-up and its stolen share.
	setupSlow, setupStolen []float64
	recoveries             []time.Duration
	steady                 *phaseResult
	paced                  *phaseResult
	// traced runs only: the same steady phase with spans on, and the
	// twin-client replay of its ops.
	traced *phaseResult
	twin   twinTimes
	// checks counts the correctness checks outside the load phases
	// (store checks, recovery queries, the tracing probe).
	checks, checkFailures uint64
	peakRSS               int64
	indexBytes, live      int64
}

// run executes the whole workload: set-up, warm-up, the named steady and
// paced phases, the store checks, and the kill-and-restart recovery.
func (b *bench) run(ctx context.Context, seconds int) (*runResult, error) {
	rr := &runResult{}
	defer b.teardown()
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := b.teardown(); err != nil {
				return nil, err
			}
		}
		d, slow, stolen, err := b.probedSetup()
		if err != nil {
			return nil, err
		}
		rr.setups = append(rr.setups, d)
		rr.setupSlow = append(rr.setupSlow, slow)
		rr.setupStolen = append(rr.setupStolen, stolen)
		fmt.Fprintf(b.log, "setup %d: %.3fs slowdown=%.3f stolen=%.3f\n", i, d.Seconds(), slow, stolen)
	}
	if err := b.initSlots(); err != nil {
		return nil, err
	}
	// Write back what set-up left dirty, so the kernel's background
	// writeback does not compete with the timed phases' own fsyncs.
	syscall.Sync()

	total := time.Duration(seconds) * time.Second
	steadyDur, pacedDur := total*4/5, total/5
	if _, err := b.runPhase(ctx, phaseSpec{name: "warmup", opsPerSlot: warmupOpsPerSlot}); err != nil {
		return nil, err
	}
	// The paced phase runs first after warm-up, so the writable store
	// enters it in the same state on every seed: its one flush then falls
	// at the same point of the phase and never consolidates.
	var err error
	paced := phaseSpec{name: "paced", dur: pacedDur, qps: b.w.pacedQPS, windows: pacedWindows}
	if rr.paced, err = b.runPhase(ctx, paced); err != nil {
		return nil, err
	}
	steady := phaseSpec{name: "steady", dur: steadyDur, windows: steadyWindows}
	if n := b.w.steadyOps; n > 0 {
		steady.opsPerSlot = n / len(b.slots)
	}
	if rr.steady, err = b.runPhase(ctx, steady); err != nil {
		return nil, err
	}
	if b.w.dynamic {
		b.check(rr, "store after steady", b.checkStore)
	}
	if b.trace {
		traced := steady
		traced.name, traced.traced = "steady-traced", true
		if rr.traced, err = b.runPhase(ctx, traced); err != nil {
			return nil, err
		}
		if rr.twin, err = b.replayTwin(); err != nil {
			return nil, err
		}
		b.check(rr, "tracing probe", b.probe)
	}
	if rr.peakRSS, err = procPeakRSS(b.srv.pid()); err != nil {
		return nil, err
	}

	for i := 0; i < recoveryReps; i++ {
		d, err := b.recover(rr)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		rr.recoveries = append(rr.recoveries, d)
	}
	if b.w.dynamic {
		b.check(rr, "store after restart", b.checkStore)
	}
	st, err := b.srv.stats()
	if err != nil {
		return nil, err
	}
	rr.indexBytes = st.IndexBytes
	rr.live = st.Tuples
	if b.w.dynamic {
		rr.live = b.liveTuples
	}
	return rr, nil
}

// probedSetup runs one set-up between two host probes and returns its
// time, the CPUs' slowdown around it and the share of CPU time stolen
// during it.
func (b *bench) probedSetup() (d time.Duration, slow, stolen float64, err error) {
	before, err := probeHost()
	if err != nil {
		return 0, 0, 0, err
	}
	steal0, err := hostSteal()
	if err != nil {
		return 0, 0, 0, err
	}
	cpu0 := selfCPU()
	if d, err = b.setup(); err != nil {
		return 0, 0, 0, fmt.Errorf("setup: %w", err)
	}
	cpu := selfCPU() - cpu0
	steal1, err := hostSteal()
	if err != nil {
		return 0, 0, 0, err
	}
	after, err := probeHost()
	if err != nil {
		return 0, 0, 0, err
	}
	return d, slowdown(before, after), stolenShare(steal1-steal0, cpu), nil
}

// check runs one correctness check, counting it as an attempted op.
func (b *bench) check(rr *runResult, what string, f func() error) {
	rr.checks++
	if err := f(); err != nil {
		rr.checkFailures++
		fmt.Fprintf(b.log, "check %s failed: %v\n", what, err)
	}
}

// checkStore flushes the writable store and compares its whole content
// with base tuples plus acknowledged puts minus acknowledged deletes.
func (b *bench) checkStore() error {
	rd := b.sessions[0].dyn
	if err := rd.Flush(); err != nil {
		return err
	}
	all, err := rd.Query(core.Range{Lo: 0, Hi: uint64(1)<<b.w.bits - 1})
	if err != nil {
		return err
	}
	if !b.ledger.checkExact(b.oracle, all) {
		return fmt.Errorf("store content differs from base + acknowledged writes (%d tuples)", len(all))
	}
	b.liveTuples = int64(len(all))
	return nil
}

// recoveryRange is the query that proves a restarted server answers.
func (b *bench) recoveryRange() core.Range {
	return core.Range{Lo: 0, Hi: uint64(1)<<b.w.bits/64 - 1}
}

// recover kills the server with SIGKILL, restarts it on the same files
// and returns the time until the first query is answered.
func (b *bench) recover(rr *runResult) (time.Duration, error) {
	start := time.Now()
	b.srv.kill()
	for _, s := range b.sessions {
		s.close()
	}
	b.sessions = nil
	if err := b.startServer(); err != nil {
		return 0, err
	}
	if err := b.dial(); err != nil {
		return 0, err
	}
	s := b.sessions[0]
	q := b.recoveryRange()
	rr.checks++
	if b.w.dynamic {
		got, err := s.dyn.Query(q)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		var sc scratch
		if !b.ledger.checkLive(b.oracle, q, got, &sc) {
			rr.checkFailures++
			fmt.Fprintf(b.log, "check recovery query %v: wrong answer\n", q)
		}
		return d, nil
	}
	clients, err := b.ownerClients(nil)
	if err != nil {
		return 0, err
	}
	res, err := clients[0].QueryServer(s.raw[0], q)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	var sc scratch
	if !b.oracle.matches(q, res.Matches, &sc) {
		rr.checkFailures++
		fmt.Fprintf(b.log, "check recovery query %v: wrong answer\n", q)
	}
	return d, nil
}

// twinTimes is the client-side cost of the traced phase's ops measured
// apart from the ops, on twin clients with no memo: the cover planning
// and the trapdoor derivation the owner call does inside its span.
type twinTimes struct {
	planPerOp, trapdoorPerOp [maxSchemes]time.Duration
	ops                      [maxSchemes]int
}

func (t twinTimes) total() (plan, trapdoor time.Duration, ops int) {
	for i := range t.ops {
		plan += t.planPerOp[i] * time.Duration(t.ops[i])
		trapdoor += t.trapdoorPerOp[i] * time.Duration(t.ops[i])
		ops += t.ops[i]
	}
	return plan, trapdoor, ops
}

// replayTwin replays the traced phase's recorded ops on twin clients.
// A batch op is timed as cover.PlanBatch over its ranges plus one
// Trapdoor per range, an upper bound on the deduplicated derivation.
func (b *bench) replayTwin() (twinTimes, error) {
	var tt twinTimes
	if b.w.dynamic {
		return tt, nil // the owner side of updates runs in the server
	}
	twins, err := b.ownerClients(nil)
	if err != nil {
		return tt, err
	}
	dom := cover.Domain{Bits: b.w.bits}
	for ki, k := range b.w.kinds {
		var ops []replayOp
		for _, sl := range b.slots {
			for _, r := range sl.replay {
				if r.scheme == ki {
					ops = append(ops, r)
				}
			}
		}
		if len(ops) == 0 {
			continue
		}
		start := time.Now()
		for _, op := range ops {
			if err := planCover(dom, k, op.ranges); err != nil {
				return tt, err
			}
		}
		tt.planPerOp[ki] = time.Since(start) / time.Duration(len(ops))
		start = time.Now()
		for _, op := range ops {
			for _, q := range op.ranges {
				if _, err := twins[ki].Trapdoor(q); err != nil {
					return tt, err
				}
			}
		}
		tt.trapdoorPerOp[ki] = time.Since(start) / time.Duration(len(ops))
		tt.ops[ki] = len(ops)
	}
	return tt, nil
}

// planCover computes the covers scheme k plans for ranges.
func planCover(dom cover.Domain, k core.Kind, ranges []core.Range) error {
	switch k {
	case core.LogarithmicSRC, core.LogarithmicSRCi:
		t := cover.NewTDAG(dom)
		for _, q := range ranges {
			if _, err := t.SRC(q.Lo, q.Hi); err != nil {
				return err
			}
		}
		return nil
	}
	tech := cover.URCTechnique
	if k == core.ConstantBRC || k == core.LogarithmicBRC {
		tech = cover.BRCTechnique
	}
	if len(ranges) > 1 {
		iv := make([]cover.Interval, len(ranges))
		for i, q := range ranges {
			iv[i] = cover.Interval{Lo: q.Lo, Hi: q.Hi}
		}
		_, err := cover.PlanBatch(dom, iv, tech)
		return err
	}
	_, err := cover.Cover(dom, ranges[0].Lo, ranges[0].Hi, tech)
	return err
}

// probeOps is the length of the tracing probe's fixed op list.
const probeOps = 96

// probe sends one fixed op list twice, untraced and then traced, on
// fresh connections, and requires the exact leakage counts of the two
// passes to be equal: tracing must not change what crosses the wire.
func (b *bench) probe() error {
	var counts [2]leakage
	for pass := range counts {
		var wire atomic.Uint64
		s, err := b.newSession(&wire)
		if err != nil {
			return err
		}
		l, err := b.probePass(s, pass == 1)
		s.close()
		if err != nil {
			return err
		}
		counts[pass] = l
	}
	if counts[0] != counts[1] {
		return fmt.Errorf("leakage differs: untraced %+v, traced %+v", counts[0], counts[1])
	}
	return nil
}

func (b *bench) probePass(s *session, traced bool) (leakage, error) {
	var l leakage
	spec := b.w.opSpec(b.seed)
	spec.WriteFraction = 0 // the probe must not change the store
	g, err := workload.NewGenerator(spec, b.w.bits, 1<<20)
	if err != nil {
		return l, err
	}
	sl := &slot{id: 0, sess: s, gen: g, acc: newAcc(b.schemes()), rec: &recorder{epoch: time.Now()}}
	if sl.clients, err = b.ownerClients(nil); err != nil {
		return l, err
	}
	var before StoreTotals
	if b.w.dynamic {
		if err := b.srv.setTiming(traced); err != nil {
			return l, err
		}
		st, err := b.srv.stats()
		if err != nil {
			return l, err
		}
		before = *st.Store
	}
	for i := 0; i < probeOps; i++ {
		out := b.exec(context.Background(), sl, g.Next(), traced)
		if out.err != nil {
			return l, out.err
		}
		if out.wrong {
			return l, fmt.Errorf("probe op %d: wrong answer", i)
		}
	}
	if !b.w.dynamic {
		return sl.acc.leak, nil
	}
	if err := b.srv.setTiming(false); err != nil {
		return l, err
	}
	st, err := b.srv.stats()
	if err != nil {
		return l, err
	}
	d := st.Store.sub(before)
	return leakage{tokens: d.Tokens, tokenBytes: d.TokenBytes, respItems: d.ResultTuples,
		rawIDs: d.RawIDs, fps: d.FalsePos}, nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
