package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rsse"
	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/storage"
	"rsse/internal/transport"
	"rsse/internal/workload"
)

const (
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median.
	setupReps = 3
	// recoveryReps is how many times a run kills and restarts the server;
	// recovery_s is the median.
	recoveryReps = 3
	// memoCapacity is each session's shared trapdoor memo, as rsse-load
	// sizes it.
	memoCapacity = 16384
	// maxLate is how far behind schedule a paced fire may be sent. Later
	// fires are shed and count as failed, which bounds the backlog a
	// stalled generator can build.
	maxLate = time.Second
	// replayCap bounds the ops per slot kept for the twin-client replay.
	replayCap = 512
	// warmupOpsPerSlot is the warm-up length. A fixed op count, not a
	// time, so the writable store leaves warm-up with the same number of
	// writes on every run.
	warmupOpsPerSlot = 250
)

// bench is one run of one workload.
type bench struct {
	w     *workloadDef
	seed  int64
	dir   string // scratch directory of this run, inside the checkout
	trace bool
	log   io.Writer

	tuples []core.Tuple
	oracle *oracle
	keys   [][]byte

	srv      *serverProc
	sessions []*session
	slots    []*slot
	wire     atomic.Uint64 // bytes through the load connections

	// Write-stream bookkeeping (updates only).
	ledger      *ledger
	writesAcked atomic.Uint64
	liveTuples  int64 // store size at the last exact check
}

// session is one load connection and what is bound to it.
type session struct {
	conn   *transport.Conn
	raw    []core.Server // per scheme: the transport handle
	traced []core.Server // per scheme: the handle behind tracedServer
	memos  []*core.TrapdoorMemo
	dyn    *rsse.RemoteDynamic
}

func (s *session) close() {
	if s.conn != nil {
		s.conn.Close()
	}
	if s.dyn != nil {
		s.dyn.Close()
	}
}

// slot is one in-flight lane: a generator, its owner clients and its
// accounting. A slot's ops run strictly one after another.
type slot struct {
	id      int
	sess    *session
	gen     *workload.Generator
	clients []*core.Client
	k       int // ops issued, for the scheme rotation
	rec     *recorder
	opSeq   uint32
	sc      scratch
	acc     *acc
	replay  []replayOp
	flush   bool // the last write completed a flush interval
}

// replayOp is an op the traced phase sent, kept for the twin replay.
type replayOp struct {
	scheme int
	ranges []core.Range
}

type leakage struct {
	tokens, tokenBytes, respItems, rawIDs, fps uint64
}

func (l *leakage) add(o leakage) {
	l.tokens += o.tokens
	l.tokenBytes += o.tokenBytes
	l.respItems += o.respItems
	l.rawIDs += o.rawIDs
	l.fps += o.fps
}

type schemeAcc struct {
	lat  workload.Histogram
	ops  uint64
	leak leakage
}

// acc is one slot's (then one phase's merged) accounting.
type acc struct {
	attempted, failed, wrong, shed uint64
	ops, queries, writes, flushes  uint64
	qLat, wLat, late               workload.Histogram
	leak                           leakage
	coverNodes, uniqueTokens       uint64
	batchOps                       uint64
	perScheme                      []schemeAcc
	// done holds the latency of every completed op, for the windowed
	// statistics.
	done []sample
}

// sample is one completed op.
type sample struct {
	lat   time.Duration
	write bool
}

func newAcc(schemes int) *acc {
	a := &acc{}
	if schemes > 1 {
		a.perScheme = make([]schemeAcc, schemes)
	}
	return a
}

func (a *acc) merge(o *acc) {
	a.attempted += o.attempted
	a.failed += o.failed
	a.wrong += o.wrong
	a.shed += o.shed
	a.ops += o.ops
	a.queries += o.queries
	a.writes += o.writes
	a.flushes += o.flushes
	a.qLat.Merge(&o.qLat)
	a.wLat.Merge(&o.wLat)
	a.late.Merge(&o.late)
	a.leak.add(o.leak)
	a.coverNodes += o.coverNodes
	a.uniqueTokens += o.uniqueTokens
	a.batchOps += o.batchOps
	a.done = append(a.done, o.done...)
	for i := range o.perScheme {
		p, q := &a.perScheme[i], &o.perScheme[i]
		p.lat.Merge(&q.lat)
		p.ops += q.ops
		p.leak.add(q.leak)
	}
}

// outcome is what one op did.
type outcome struct {
	scheme int
	write  bool
	err    error
	wrong  bool
}

func newBench(w *workloadDef, seed int64, dir string, trace bool, log io.Writer) (*bench, error) {
	tuples, keys, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, dir: dir, trace: trace, log: log,
		tuples: tuples, oracle: newOracle(tuples), keys: keys}
	if w.dynamic {
		b.ledger = newLedger()
	}
	return b, nil
}

func (b *bench) dataDir() string { return filepath.Join(b.dir, "data") }

func (b *bench) schemes() int { return max(len(b.w.kinds), 1) }

// setup builds and writes every served index (or preloads the writable
// store), starts the server on it and dials the load connections. It is
// what setup_s times.
func (b *bench) setup() (time.Duration, error) {
	start := time.Now()
	dir := b.dataDir()
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if b.w.dynamic {
		if err := b.preload(dir); err != nil {
			return 0, err
		}
	} else {
		for i, k := range b.w.kinds {
			if err := b.buildIndex(dir, k, b.keys[i]); err != nil {
				return 0, err
			}
		}
	}
	if err := b.startServer(); err != nil {
		return 0, err
	}
	if err := b.dial(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (b *bench) buildIndex(dir string, k core.Kind, key []byte) error {
	owner, err := core.NewClient(k, cover.Domain{Bits: b.w.bits},
		core.Options{MasterKey: key, Rand: buildRand(b.seed, k), Storage: storage.Sorted{}})
	if err != nil {
		return err
	}
	idx, err := owner.BuildIndex(b.tuples)
	if err != nil {
		return fmt.Errorf("build %v: %w", k, err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, indexName(k)+".idx"), blob, 0o644)
}

// preload writes the base tuples into a fresh durable store and seals
// them into one epoch on the second level, so the flushes of a run merge
// only their own small epochs; the server then opens the store with an
// fsync per write.
func (b *bench) preload(dir string) error {
	d, err := rsse.OpenDynamic(dir, rsse.LogarithmicBRC, b.w.bits, b.w.step, rsse.WithSyncEvery(1<<30))
	if err != nil {
		return err
	}
	for _, t := range b.tuples {
		if err := d.Insert(t.ID, t.Value, nil); err != nil {
			d.Close()
			return err
		}
	}
	if err := d.FullConsolidate(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (b *bench) serverArgs() []string {
	args := []string{}
	if b.w.dynamic {
		args = append(args, "-writable", b.dataDir(), "-bits", strconv.Itoa(int(b.w.bits)),
			"-step", strconv.Itoa(b.w.step))
	} else {
		args = append(args, "-dir", b.dataDir())
	}
	if b.trace {
		args = append(args, "-trace")
	}
	return args
}

func (b *bench) startServer() error {
	p, err := startServer(b.serverArgs())
	if err != nil {
		return err
	}
	b.srv = p
	return nil
}

// newSession dials one load connection, counting its bytes into wire.
func (b *bench) newSession(wire *atomic.Uint64) (*session, error) {
	nc, err := net.Dial("tcp", b.srv.addr)
	if err != nil {
		return nil, err
	}
	cc := countingConn{Conn: nc, n: wire}
	s := &session{}
	if b.w.dynamic {
		s.dyn = rsse.NewRemoteDynamic(cc, rsse.DefaultDynamicName)
		return s, nil
	}
	s.conn = transport.NewConn(cc)
	for _, k := range b.w.kinds {
		h := s.conn.Index(indexName(k))
		s.raw = append(s.raw, h)
		s.traced = append(s.traced, wrapServer(h, clientHook))
		s.memos = append(s.memos, core.NewTrapdoorMemo(memoCapacity))
	}
	return s, nil
}

// dial opens the load connections and binds every slot to one.
func (b *bench) dial() error {
	for i := 0; i < b.w.spec.Connections; i++ {
		s, err := b.newSession(&b.wire)
		if err != nil {
			return err
		}
		b.sessions = append(b.sessions, s)
	}
	return nil
}

// teardown stops the server and closes the load connections.
func (b *bench) teardown() error {
	for _, s := range b.sessions {
		s.close()
	}
	b.sessions = nil
	if b.srv == nil {
		return nil
	}
	err := b.srv.stop()
	b.srv = nil
	return err
}

// initSlots builds the load slots. Slot s uses connection s mod
// Connections and the generator stream of slot s, which it keeps across
// phases so warm-up fills the caches the steady phase then hits.
func (b *bench) initSlots() error {
	spec := b.w.opSpec(b.seed)
	n := spec.Connections * spec.InFlight
	for s := 0; s < n; s++ {
		g, err := workload.NewGenerator(spec, b.w.bits, s)
		if err != nil {
			return err
		}
		sl := &slot{id: s, sess: b.sessions[s%spec.Connections], gen: g, rec: &recorder{epoch: time.Now()}}
		if sl.clients, err = b.ownerClients(sl.sess.memos); err != nil {
			return err
		}
		b.slots = append(b.slots, sl)
	}
	return nil
}

// ownerClients returns one owner client per served scheme, sharing the
// given memos (nil memos: no memo). The Constant schemes run with the
// intersecting-query guard off, as rsse-load and the paper's Fig 7 do.
func (b *bench) ownerClients(memos []*core.TrapdoorMemo) ([]*core.Client, error) {
	var out []*core.Client
	for i, k := range b.w.kinds {
		opts := core.Options{MasterKey: b.keys[i], AllowIntersecting: true}
		if memos != nil {
			opts.SharedTrapdoorMemo = memos[i]
		}
		c, err := core.NewClient(k, cover.Domain{Bits: b.w.bits}, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// exec runs one op on a slot and checks its answer.
func (b *bench) exec(ctx context.Context, sl *slot, op *workload.Op, traced bool) outcome {
	if b.w.dynamic {
		return b.execDynamic(ctx, sl, op, traced)
	}
	ki := 0
	if n := len(b.w.kinds); n > 1 {
		ki = (sl.id + sl.k) % n
	}
	sl.k++
	a := sl.acc
	srv := sl.sess.raw[ki]
	endOwner := func() {}
	if traced {
		sl.opSeq++
		opSpan := sl.rec.begin(spanOp, -1, sl.opSeq, int8(ki), 0)
		defer sl.rec.end(opSpan)
		owner := sl.rec.begin(spanOwner, opSpan, sl.opSeq, int8(ki), 0)
		endOwner = func() { sl.rec.end(owner) }
		ctx = withSpan(ctx, &spanCtx{rec: sl.rec, parent: owner, op: sl.opSeq, scheme: int8(ki)})
		srv = sl.sess.traced[ki]
		if len(sl.replay) < replayCap {
			sl.replay = append(sl.replay, replayOp{scheme: ki, ranges: slices.Clone(op.Ranges)})
		}
	}
	cl := sl.clients[ki]
	out := outcome{scheme: ki}
	var l leakage
	if len(op.Ranges) == 1 {
		q := op.Ranges[0]
		res, err := cl.QueryServerContext(ctx, srv, q)
		endOwner()
		cl.ResetHistory()
		if err != nil {
			out.err = err
			return out
		}
		out.wrong = !b.oracle.matches(q, res.Matches, &sl.sc)
		st := res.Stats
		l = leakage{uint64(st.Tokens), uint64(st.TokenBytes), uint64(st.ResponseItems),
			uint64(st.Raw), uint64(st.FalsePositives)}
	} else {
		br, err := cl.QueryBatchContext(ctx, srv, op.Ranges)
		endOwner()
		cl.ResetHistory()
		if err != nil {
			out.err = err
			return out
		}
		l = leakage{tokens: uint64(br.Stats.UniqueTokens), tokenBytes: uint64(br.Stats.TokenBytes),
			respItems: uint64(br.Stats.ResponseItems)}
		for i, res := range br.Results {
			if !b.oracle.matches(op.Ranges[i], res.Matches, &sl.sc) {
				out.wrong = true
			}
			l.rawIDs += uint64(res.Stats.Raw)
			l.fps += uint64(res.Stats.FalsePositives)
		}
		a.coverNodes += uint64(br.Stats.CoverNodes)
		a.uniqueTokens += uint64(br.Stats.UniqueTokens)
		a.batchOps++
	}
	a.leak.add(l)
	if a.perScheme != nil {
		a.perScheme[ki].leak.add(l)
	}
	return out
}

// execDynamic runs one op of the updates workload through RemoteDynamic.
func (b *bench) execDynamic(ctx context.Context, sl *slot, op *workload.Op, traced bool) outcome {
	rd := sl.sess.dyn
	if traced {
		// The owner work of this workload (trapdoors, epoch fan-out) runs
		// in the writable server, so only the op is spanned here.
		sl.opSeq++
		defer sl.rec.end(sl.rec.begin(spanOp, -1, sl.opSeq, 0, 0))
	}
	if w := op.Write; w != nil {
		var err error
		if w.Del {
			if err = rd.Delete(w.ID, w.Value); err == nil {
				b.ledger.settle(w.ID, putDeleted)
			}
		} else {
			b.ledger.issue(w.ID, w.Value)
			if err = rd.Insert(w.ID, w.Value, w.Payload); err == nil {
				b.ledger.settle(w.ID, putAcked)
			}
		}
		if err != nil {
			b.ledger.settle(w.ID, putUncertain)
			return outcome{write: true, err: err}
		}
		if b.writesAcked.Add(1)%b.w.flushEvery == 0 {
			sl.flush = true
		}
		return outcome{write: true}
	}
	q := op.Ranges[0]
	got, err := rd.QueryContext(ctx, q)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{wrong: !b.ledger.checkLive(b.oracle, q, got, &sl.sc)}
}

// phaseSpec names one timed phase. qps 0 is a closed loop: each slot
// keeps one op in flight. qps > 0 is an open loop at that total rate,
// with latency timed from each op's scheduled send.
type phaseSpec struct {
	name   string
	dur    time.Duration
	qps    float64
	traced bool
	// opsPerSlot, when set, ends the phase after that many ops per slot
	// instead of after dur.
	opsPerSlot int
	// windows is how many equal windows the phase runs as, each on its
	// own between two host probes; 0 means one.
	windows int
}

// phaseResult is everything measured over one phase and nothing else:
// every reported value comes from exactly one of these. Its totals
// cover the windows only, never the host probes between them.
type phaseResult struct {
	spec       phaseSpec
	wins       []windowResult
	elapsed    time.Duration
	acc        *acc
	wireBytes  uint64
	clientGC   uint64
	before     ServerStats
	after      ServerStats
	memoHits   uint64
	memoMisses uint64
	spans      layerTotals
}

// windowResult is one window of a phase and the host's slowdown around
// it.
type windowResult struct {
	elapsed   time.Duration
	acc       *acc
	clientCPU time.Duration
	serverCPU time.Duration
	stolen    float64 // see stolenShare
	slow      float64 // see slowdown
}

func (p *phaseResult) qps() float64 { return float64(p.acc.ops) / p.elapsed.Seconds() }

func (b *bench) memoStats() (hits, misses uint64) {
	for _, s := range b.sessions {
		for _, m := range s.memos {
			h, mi := m.Stats()
			hits += h
			misses += mi
		}
	}
	return hits, misses
}

// runPhase drives every slot through one phase, window by window, with
// a host probe before each window and after the last.
func (b *bench) runPhase(ctx context.Context, ph phaseSpec) (*phaseResult, error) {
	pr := &phaseResult{spec: ph, acc: newAcc(b.schemes())}
	if ph.traced {
		if err := b.srv.setTiming(true); err != nil {
			return nil, err
		}
		for _, sl := range b.slots {
			sl.rec.spans = sl.rec.spans[:0]
			sl.replay = sl.replay[:0]
		}
	}
	var err error
	if pr.before, err = b.srv.stats(); err != nil {
		return nil, err
	}
	h0, m0 := b.memoStats()
	wire0, gc0 := b.wire.Load(), gcCycles()

	n := max(ph.windows, 1)
	probe, err := probeHost()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		w, err := b.runWindow(ctx, ph, i, n)
		if err != nil {
			return nil, err
		}
		next, err := probeHost()
		if err != nil {
			return nil, err
		}
		w.slow = slowdown(probe, next)
		probe = next
		pr.wins = append(pr.wins, w)
		pr.elapsed += w.elapsed
		pr.acc.merge(w.acc)
	}

	pr.wireBytes = b.wire.Load() - wire0
	pr.clientGC = gcCycles() - gc0
	h1, m1 := b.memoStats()
	pr.memoHits, pr.memoMisses = h1-h0, m1-m0
	if pr.after, err = b.srv.stats(); err != nil {
		return nil, err
	}
	if ph.traced {
		if err := b.srv.setTiming(false); err != nil {
			return nil, err
		}
		pr.spans = sumSpans(b.recorders())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "phase %-14s %6.2fs ops=%d writes=%d flushes=%d qps=%.1f failed=%d wrong=%d shed=%d p50=%v p99=%v host=%.3f\n",
		ph.name, pr.elapsed.Seconds(), pr.acc.ops, pr.acc.writes, pr.acc.flushes, pr.qps(), pr.acc.failed, pr.acc.wrong, pr.acc.shed,
		pr.acc.qLat.Quantile(0.5), pr.acc.qLat.Quantile(0.99), pr.hostSlowdown())
	return pr, nil
}

// runWindow runs window i of n of a phase: a 1/n share of its time or of
// its ops per slot.
func (b *bench) runWindow(ctx context.Context, ph phaseSpec, i, n int) (windowResult, error) {
	w := windowResult{acc: newAcc(b.schemes())}
	srvCPU0, err := procCPU(b.srv.pid())
	if err != nil {
		return w, err
	}
	cpu0 := selfCPU()
	steal0, err := hostSteal()
	if err != nil {
		return w, err
	}
	for _, sl := range b.slots {
		sl.acc = newAcc(b.schemes())
	}
	win := ph
	win.dur = ph.dur / time.Duration(n)
	start := time.Now()
	deadline := start.Add(win.dur)
	if ph.opsPerSlot > 0 {
		win.opsPerSlot = ph.opsPerSlot*(i+1)/n - ph.opsPerSlot*i/n
		deadline = start.Add(time.Hour)
	}
	var wg sync.WaitGroup
	for _, sl := range b.slots {
		wg.Add(1)
		go func(sl *slot) {
			defer wg.Done()
			b.slotLoop(ctx, sl, win, start, deadline)
		}(sl)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.clientCPU = selfCPU() - cpu0
	steal1, err := hostSteal()
	if err != nil {
		return w, err
	}
	srvCPU1, err := procCPU(b.srv.pid())
	if err != nil {
		return w, err
	}
	w.serverCPU = srvCPU1 - srvCPU0
	w.stolen = stolenShare(steal1-steal0, w.clientCPU+w.serverCPU)
	for _, sl := range b.slots {
		w.acc.merge(sl.acc)
	}
	return w, nil
}

// slotLoop is one slot's phase: closed loop, or open loop on the slot's
// share of the phase rate with a staggered start.
func (b *bench) slotLoop(ctx context.Context, sl *slot, ph phaseSpec, start, deadline time.Time) {
	a := sl.acc
	paced := ph.qps > 0
	var interval time.Duration
	var next time.Time
	if paced {
		n := len(b.slots)
		interval = time.Duration(float64(n) / ph.qps * float64(time.Second))
		next = start.Add(interval * time.Duration(sl.id) / time.Duration(n))
	}
	for n := 0; ctx.Err() == nil && (ph.opsPerSlot == 0 || n < ph.opsPerSlot); n++ {
		now := time.Now()
		due := now
		if paced {
			// Every fire scheduled before the deadline is sent or shed,
			// even when the slot is still catching up after it.
			if !next.Before(deadline) {
				return
			}
			if wait := next.Sub(now); wait > 0 {
				time.Sleep(wait)
				now = time.Now()
			}
			due = next
			next = next.Add(interval)
			late := now.Sub(due)
			if late > maxLate {
				a.attempted++
				a.failed++
				a.shed++
				continue
			}
			a.late.Record(late)
		} else if !now.Before(deadline) {
			return
		}
		op := sl.gen.Next()
		out := b.exec(ctx, sl, op, ph.traced)
		lat := time.Since(due)
		a.attempted++
		switch {
		case out.err != nil:
			a.failed++
			fmt.Fprintf(b.log, "slot %d: %v\n", sl.id, out.err)
		case out.wrong:
			a.failed++
			a.wrong++
			fmt.Fprintf(b.log, "slot %d: wrong answer to %v\n", sl.id, op.Ranges)
		default:
			a.ops++
			a.done = append(a.done, sample{lat: lat, write: out.write})
			if out.write {
				a.writes++
				a.wLat.Record(lat)
			} else {
				a.queries++
				a.qLat.Record(lat)
				if a.perScheme != nil {
					a.perScheme[out.scheme].lat.Record(lat)
					a.perScheme[out.scheme].ops++
				}
			}
		}
		if sl.flush {
			sl.flush = false
			a.attempted++
			a.flushes++
			if err := sl.sess.dyn.Flush(); err != nil {
				a.failed++
				fmt.Fprintf(b.log, "slot %d: flush: %v\n", sl.id, err)
			}
		}
	}
}

func (b *bench) recorders() []*recorder {
	recs := make([]*recorder, len(b.slots))
	for i, sl := range b.slots {
		recs[i] = sl.rec
	}
	return recs
}
