package main

import (
	"context"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/dataset"
	"rsse/internal/transport"
)

// phaseWith builds a phase whose every measured quantity scales with k,
// on a host at nominal speed.
func phaseWith(k float64) *phaseResult {
	return phaseOn(k, 1, 0)
}

// phaseOn builds a phase of steadyWindows windows whose every measured
// quantity scales with k, on a host whose CPUs are slowed down by s and
// which steals a share f of the CPU time: CPU times stretch by s, wall
// times by s/(1-f).
func phaseOn(k, s, f float64) *phaseResult {
	pr := &phaseResult{acc: newAcc(1), wireBytes: uint64(k * 1e6)}
	for range steadyWindows {
		a := newAcc(1)
		for i := 0; i < 400; i++ {
			lat := time.Duration(k * s / (1 - f) * float64(time.Millisecond) * float64(1+i%50) / 10)
			a.done = append(a.done, sample{lat: lat, write: i%5 == 0})
			a.attempted++
			a.ops++
		}
		w := windowResult{
			elapsed:   time.Duration(k * s / (1 - f) * float64(2*time.Second)),
			acc:       a,
			clientCPU: time.Duration(k * s * float64(200*time.Millisecond)),
			serverCPU: time.Duration(k * s * float64(400*time.Millisecond)),
			slow:      s,
			stolen:    f,
		}
		pr.wins = append(pr.wins, w)
		pr.elapsed += w.elapsed
		pr.acc.merge(a)
	}
	return pr
}

func baseRun() *runResult {
	return &runResult{
		setups:      []time.Duration{time.Second, 2 * time.Second, 3 * time.Second},
		setupSlow:   []float64{1, 1, 1},
		setupStolen: []float64{0, 0, 0},
		recoveries:  []time.Duration{time.Second},
		steady:      phaseWith(1),
		paced:       phaseWith(1),
		traced:      phaseWith(1),
		peakRSS:     1 << 30,
		indexBytes:  1000,
		live:        10,
	}
}

// TestMetricsQuoteOnePhase pins that every phase-derived end-to-end
// metric comes from exactly one named phase: changing any other phase
// leaves it unchanged, and the quoted figures are never a maximum over
// phases.
func TestMetricsQuoteOnePhase(t *testing.T) {
	want := map[string]string{
		"qps":                  "steady",
		"latency_p50_ms":       "steady",
		"server_cpu_us_per_op": "steady",
		"wire_bytes_per_op":    "steady",
	}
	base := endToEnd(baseRun())
	moved := map[string][]string{}
	for _, phase := range []string{"steady", "paced", "traced"} {
		rr := baseRun()
		switch phase {
		case "steady":
			rr.steady = phaseWith(3)
		case "paced":
			rr.paced = phaseWith(3)
		case "traced":
			rr.traced = phaseWith(3)
		}
		got := endToEnd(rr)
		for name, m := range got {
			if m.Value != base[name].Value {
				moved[name] = append(moved[name], phase)
			}
		}
	}
	for name, phase := range want {
		if got := moved[name]; len(got) != 1 || got[0] != phase {
			t.Errorf("%s moves with phases %v, want only %s", name, got, phase)
		}
	}
	for name, phases := range moved {
		if _, ok := want[name]; !ok {
			t.Errorf("%s moves with phases %v but is not a phase metric", name, phases)
		}
	}
	// A faster steady phase must not raise qps when another phase is
	// faster still: the figure is the steady phase's, not a maximum.
	rr := baseRun()
	rr.paced = phaseWith(0.1)
	rr.traced = phaseWith(0.1)
	if got := endToEnd(rr)["qps"].Value; got != base["qps"].Value {
		t.Errorf("qps %v follows a faster non-steady phase, want steady's %v", got, base["qps"].Value)
	}
}

func TestWindowsMedian(t *testing.T) {
	p := phaseWith(1)
	// One window of ten times slower queries must not move the medians.
	slow := phaseWith(1)
	for i := range slow.wins[0].acc.done {
		slow.wins[0].acc.done[i].lat *= 10
	}
	a, b := p.windows(true, true), slow.windows(true, true)
	if a.p99 != b.p99 || a.p50 != b.p50 {
		t.Errorf("one slow window moved the medians: %+v vs %+v", a, b)
	}
	if want := 200.0; a.qps != want {
		t.Errorf("qps = %v, want %v", a.qps, want)
	}
}

// TestHostSlowdownCancels pins the corrections: a run on a host whose
// CPUs are uniformly slower, as its probes show, and which steals CPU
// time reports the same end-to-end timings, while a slower program on the
// same host does not.
func TestHostSlowdownCancels(t *testing.T) {
	base := endToEnd(baseRun())
	const s, f = 1.3, 0.2
	rr := baseRun()
	rr.steady, rr.paced = phaseOn(1, s, f), phaseOn(1, s, f)
	for i := range rr.setups {
		rr.setups[i] = time.Duration(float64(rr.setups[i]) * s / (1 - f))
		rr.setupSlow[i], rr.setupStolen[i] = s, f
	}
	slowHost := endToEnd(rr)
	for _, name := range []string{"setup_s", "qps", "latency_p50_ms", "server_cpu_us_per_op"} {
		if got, want := slowHost[name].Value, base[name].Value; math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s = %v on a slower host, want %v", name, got, want)
		}
	}
	rr = baseRun()
	rr.steady = phaseWith(1.3)
	if got, want := endToEnd(rr)["latency_p50_ms"].Value, base["latency_p50_ms"].Value; got <= want {
		t.Errorf("latency_p50_ms = %v for a slower program, want above %v", got, want)
	}
	if got, err := probeHost(); err != nil || got <= 0 {
		t.Errorf("probe used %v of CPU, err %v", got, err)
	}
}

func TestOracleMatches(t *testing.T) {
	ts := []core.Tuple{{ID: 1, Value: 5}, {ID: 2, Value: 7}, {ID: 3, Value: 7}, {ID: 4, Value: 9}}
	o := newOracle(ts)
	var sc scratch
	q := core.Range{Lo: 6, Hi: 9}
	if !o.matches(q, []uint64{4, 2, 3}, &sc) {
		t.Error("exact answer in any order rejected")
	}
	for _, bad := range [][]uint64{{2, 3}, {1, 2, 3, 4}, {2, 2, 4}, {2, 3, 5}} {
		if o.matches(q, bad, &sc) {
			t.Errorf("wrong answer %v accepted", bad)
		}
	}
}

func TestLedgerChecks(t *testing.T) {
	base := []core.Tuple{{ID: 1, Value: 10}, {ID: 2, Value: 20}}
	retagBase(base)
	o := newOracle(base)
	l := newLedger()
	put := func(id, v uint64) core.Tuple {
		p := writePayload(id, v)
		return core.Tuple{ID: id, Value: v, Payload: p[:]}
	}
	l.issue(7, 15)
	var sc scratch
	q := core.Range{Lo: 0, Hi: 30}
	if !l.checkLive(o, q, []core.Tuple{base[0], base[1], put(7, 15)}, &sc) {
		t.Error("base plus an issued put rejected")
	}
	if !l.checkLive(o, q, []core.Tuple{base[0], base[1]}, &sc) {
		t.Error("an unflushed put must be allowed to be missing")
	}
	if l.checkLive(o, q, []core.Tuple{base[0], put(7, 15)}, &sc) {
		t.Error("a missing base tuple accepted")
	}
	if l.checkLive(o, q, []core.Tuple{base[0], base[1], put(8, 15)}, &sc) {
		t.Error("a never-issued tuple accepted")
	}
	if l.checkLive(o, q, []core.Tuple{base[0], base[1], put(7, 16)}, &sc) {
		t.Error("an issued id with the wrong value accepted")
	}
	l.settle(7, putAcked)
	if l.checkExact(o, []core.Tuple{base[0], base[1]}) {
		t.Error("an acknowledged put missing from the store accepted")
	}
	if !l.checkExact(o, []core.Tuple{base[0], base[1], put(7, 15)}) {
		t.Error("exact store content rejected")
	}
	l.settle(7, putDeleted)
	if l.checkExact(o, []core.Tuple{base[0], base[1], put(7, 15)}) {
		t.Error("a deleted put still in the store accepted")
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {45, 48}, {90, 120}}
	if got, want := covered(0, 100, iv), time.Duration(20+10+10); got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered(nil) = %v", got)
	}
}

var optional = map[string]reflect.Type{
	"BatchSearcher":        reflect.TypeOf((*core.BatchSearcher)(nil)).Elem(),
	"ContextSearcher":      reflect.TypeOf((*core.ContextSearcher)(nil)).Elem(),
	"ContextBatchSearcher": reflect.TypeOf((*core.ContextBatchSearcher)(nil)).Elem(),
	"ContextFetcher":       reflect.TypeOf((*core.ContextFetcher)(nil)).Elem(),
	"Stats":                reflect.TypeOf((*interface{ Stats() core.IndexStats })(nil)).Elem(),
}

func testIndex(t *testing.T, k core.Kind) (*core.Client, *core.Index, []core.Tuple) {
	t.Helper()
	ts := dataset.Uniform(300, 10, 1)
	c, err := core.NewClient(k, cover.Domain{Bits: 10}, core.Options{MasterKey: make([]byte, 32), AllowIntersecting: true})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(ts)
	if err != nil {
		t.Fatal(err)
	}
	return c, idx, ts
}

// TestWrapperForwardsInterfaces pins that the span wrapper exposes
// exactly the optional interfaces of what it wraps, so core takes the
// same path through a traced server as through the bare one.
func TestWrapperForwardsInterfaces(t *testing.T) {
	_, idx, _ := testIndex(t, core.LogarithmicBRC)
	cli, srv := net.Pipe()
	defer srv.Close()
	conn := transport.NewConn(cli)
	defer conn.Close()
	for name, inner := range map[string]core.Server{"index": idx, "handle": conn.Index("x")} {
		wrapped := wrapServer(inner, clientHook)
		for iface, typ := range optional {
			in := reflect.TypeOf(inner).Implements(typ)
			out := reflect.TypeOf(wrapped).Implements(typ)
			if in != out {
				t.Errorf("%s: %s implemented by inner=%v, wrapper=%v", name, iface, in, out)
			}
		}
	}
}

// TestTracingLeavesLeakageEqual runs the same queries through the bare
// index and through the traced wrapper and requires identical leakage
// counts, with spans recorded only on the traced pass.
func TestTracingLeavesLeakageEqual(t *testing.T) {
	for _, k := range practical {
		c, idx, ts := testIndex(t, k)
		o := newOracle(ts)
		rec := &recorder{epoch: time.Now()}
		var counts [2]leakage
		for pass, srv := range []core.Server{idx, wrapServer(idx, clientHook)} {
			for i := uint64(0); i < 40; i++ {
				q := core.Range{Lo: i * 20, Hi: i*20 + 3 + i%17}
				ctx := context.Background()
				owner := int32(-1)
				if pass == 1 {
					owner = rec.begin(spanOwner, -1, uint32(i), 0, 0)
					ctx = withSpan(ctx, &spanCtx{rec: rec, parent: owner})
				}
				res, err := c.QueryServerContext(ctx, srv, q)
				if owner >= 0 {
					rec.end(owner)
				}
				if err != nil {
					t.Fatal(err)
				}
				var sc scratch
				if !o.matches(q, res.Matches, &sc) {
					t.Fatalf("%v: wrong answer to %v", k, q)
				}
				st := res.Stats
				counts[pass].add(leakage{uint64(st.Tokens), uint64(st.TokenBytes),
					uint64(st.ResponseItems), uint64(st.Raw), uint64(st.FalsePositives)})
				c.ResetHistory()
			}
		}
		if counts[0] != counts[1] {
			t.Errorf("%v: leakage untraced %+v, traced %+v", k, counts[0], counts[1])
		}
		searches := 0
		for _, s := range rec.spans {
			if s.name == spanSearch {
				searches++
			}
		}
		if searches < 40 {
			t.Errorf("%v: %d search spans recorded for 40 traced queries", k, searches)
		}
	}
}
