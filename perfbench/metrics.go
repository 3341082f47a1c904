package main

import (
	"math"
	"slices"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// The steady and paced phases run as equal windows with a host probe
// between each two. Throughput, latency and CPU per op are computed per
// window, corrected for the host's slowdown and steal in it
// (hostspeed.go), and the median over the windows is quoted, so neither a
// slow spell of the host nor one disturbed window (a neighbour's burst, a
// flush stall) moves them. Every steady window holds about a thousand queries or more on
// every workload and every paced window over three hundred ops, so the
// steady p99 and the paced p95 each have ten samples beyond them.
const (
	steadyWindows = 8
	pacedWindows  = 3
)

// windowStats are medians over a phase's windows.
type windowStats struct {
	qps                            float64
	p50, p95, p99                  time.Duration
	serverCPUPerOp, clientCPUPerOp time.Duration
}

// windows computes the median-of-windows statistics of a phase: the rate
// of all completed ops, the latency quantiles of queries only or of all
// ops, and CPU per op. With scaled set, each window's figures are first
// brought to the nominal host: CPU times divided by the slowdown, wall
// times also rid of the stolen share. Otherwise they are as measured.
func (p *phaseResult) windows(queriesOnly, scaled bool) windowStats {
	var qps, p50, p95, p99, srv, cli []float64
	for _, w := range p.wins {
		s, f := 1.0, 0.0
		if scaled {
			s, f = w.slow, w.stolen
		}
		var lats []time.Duration
		for _, d := range w.acc.done {
			if !queriesOnly || !d.write {
				lats = append(lats, d.lat)
			}
		}
		ops := float64(w.acc.ops)
		qps = append(qps, ops/(w.elapsed.Seconds()*(1-f))*s)
		p50 = append(p50, float64(quantile(lats, 0.50))*(1-f)/s)
		p95 = append(p95, float64(quantile(lats, 0.95))*(1-f)/s)
		p99 = append(p99, float64(quantile(lats, 0.99))*(1-f)/s)
		srv = append(srv, ratio(float64(w.serverCPU), ops)/s)
		cli = append(cli, ratio(float64(w.clientCPU), ops)/s)
	}
	return windowStats{qps: median(qps), p50: time.Duration(median(p50)),
		p95: time.Duration(median(p95)), p99: time.Duration(median(p99)),
		serverCPUPerOp: time.Duration(median(srv)), clientCPUPerOp: time.Duration(median(cli))}
}

// hostSlowdown is the median slowdown of the CPUs around the phase's
// windows.
func (p *phaseResult) hostSlowdown() float64 {
	var v []float64
	for _, w := range p.wins {
		v = append(v, w.slow)
	}
	return median(v)
}

// quantile returns the nearest-rank q-quantile of v, sorting v.
func quantile(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(i, 0)]
}

// totals returns the attempted and failed ops over the timed phases and
// the checks around them.
func (rr *runResult) totals() (attempted, failed uint64) {
	attempted, failed = rr.checks, rr.checkFailures
	for _, p := range []*phaseResult{rr.steady, rr.traced, rr.paced} {
		if p != nil {
			attempted += p.acc.attempted
			failed += p.acc.failed
		}
	}
	return attempted, failed
}

// wrongAnswers counts the ops and checks whose answer was wrong.
func (rr *runResult) wrongAnswers() uint64 {
	n := rr.checkFailures
	for _, p := range []*phaseResult{rr.steady, rr.traced, rr.paced} {
		if p != nil {
			n += p.acc.wrong
		}
	}
	return n
}

// endToEnd computes the user-visible metrics. Throughput, latency and
// per-op costs come from the steady phase alone, corrected to the nominal
// host; set-up time is corrected the same way.
func endToEnd(rr *runResult) metricSet {
	m := metricSet{}
	st := rr.steady
	ops := float64(st.acc.ops)
	setups := make([]float64, len(rr.setups))
	for i, d := range rr.setups {
		setups[i] = d.Seconds() * (1 - rr.setupStolen[i]) / rr.setupSlow[i]
	}
	m.set("setup_s", "s", median(setups))
	w := st.windows(true, true)
	m.set("qps", "1/s", w.qps)
	m.set("latency_p50_ms", "ms", ms(w.p50))
	m.set("server_cpu_us_per_op", "us", us(w.serverCPUPerOp))
	m.set("wire_bytes_per_op", "bytes", ratio(float64(st.wireBytes), ops))
	m.set("index_bytes_per_tuple", "bytes", ratio(float64(rr.indexBytes), float64(rr.live)))
	m.set("server_peak_rss_mb", "MB", float64(rr.peakRSS)/(1<<20))
	attempted, failed := rr.totals()
	m.set("success_ratio", "ratio", 1-ratio(float64(failed), float64(attempted)))
	return m
}

// perLayer computes the layer metrics of a traced run. Layers the
// workload does not exercise report 0. Counts and spans come from the
// steady-traced phase; generator lateness from the paced phase; write
// latencies and per-scheme latency from the untraced steady phase.
func perLayer(b *bench, rr *runResult) metricSet {
	m := metricSet{}
	tr, st, pc := rr.traced, rr.steady, rr.paced
	a := tr.acc
	queries := float64(a.queries)
	ops := float64(a.ops)
	sp := tr.spans

	m.set("gen.late_p99_ms", "ms", ms(pc.acc.late.Quantile(0.99)))
	m.set("latency_p99_ms", "ms", ms(st.windows(true, false).p99))
	pw := pc.windows(false, false)
	m.set("paced_p50_ms", "ms", ms(pw.p50))
	m.set("paced_p95_ms", "ms", ms(pw.p95))
	m.set("host.slowdown", "ratio", st.hostSlowdown())
	m.set("client_cpu_us_per_op", "us", us(st.windows(true, true).clientCPUPerOp))
	m.set("recovery_s", "s", median(durations(rr.recoveries)))
	m.set("gen.shed_ratio", "ratio", ratio(float64(pc.acc.shed), float64(pc.acc.attempted)))

	plan, trapdoor, twinOps := rr.twin.total()
	m.set("cover.plan_us", "us", ratio(us(plan), float64(twinOps)))
	m.set("core.trapdoor_us", "us", ratio(us(trapdoor), float64(twinOps)))
	m.set("core.owner_self_us", "us", ratio(us(sp.ownerSelf), float64(sp.ownerCalls)))
	m.set("core.tdmemo_hit_ratio", "ratio", ratio(float64(tr.memoHits), float64(tr.memoHits+tr.memoMisses)))
	m.set("core.batch_dedup_ratio", "ratio", ratio(float64(a.coverNodes), float64(a.uniqueTokens)))
	m.set("core.unique_tokens_per_op", "count", ratio(float64(a.uniqueTokens), float64(a.batchOps)))

	leak := a.leak
	var store StoreTotals
	if b.w.dynamic && tr.after.Store != nil && tr.before.Store != nil {
		store = tr.after.Store.sub(*tr.before.Store)
		leak = leakage{tokens: store.Tokens, tokenBytes: store.TokenBytes, respItems: store.ResultTuples,
			rawIDs: store.RawIDs, fps: store.FalsePos}
	}
	m.set("core.tokens_per_op", "count", ratio(float64(leak.tokens), queries))
	m.set("core.token_bytes_per_op", "bytes", ratio(float64(leak.tokenBytes), queries))
	m.set("core.response_items_per_op", "count", ratio(float64(leak.respItems), queries))
	m.set("core.raw_ids_per_op", "count", ratio(float64(leak.rawIDs), queries))
	m.set("core.false_positives_per_op", "count", ratio(float64(leak.fps), queries))

	var srv CallTotals
	for name, after := range tr.after.Calls {
		srv = srv.add(after.sub(tr.before.Calls[name]))
	}
	rtt := ratio(us(sp.searchTime), float64(sp.searches))
	srvSearch := ratio(float64(srv.SearchNS)/1e3, float64(srv.Searches))
	m.set("transport.search_rtt_us", "us", rtt)
	if sp.searches > 0 {
		m.set("transport.wire_overhead_us", "us", rtt-srvSearch)
	} else {
		m.set("transport.wire_overhead_us", "us", 0)
	}
	waitSum := tr.after.Metrics["rsse_dispatch_queue_wait_seconds_sum"] - tr.before.Metrics["rsse_dispatch_queue_wait_seconds_sum"]
	waitN := tr.after.Metrics["rsse_dispatch_queue_wait_seconds_count"] - tr.before.Metrics["rsse_dispatch_queue_wait_seconds_count"]
	m.set("transport.dispatch_wait_us", "us", ratio(waitSum*1e6, waitN))
	m.set("transport.trapdoors_per_call", "count", ratio(float64(sp.trapdoors), float64(sp.searches)))
	m.set("transport.fetch_rtt_us", "us", ratio(us(sp.fetchTime), float64(sp.fetches)))
	m.set("transport.fetches_per_op", "count", ratio(float64(sp.fetches), queries))

	m.set("server.search_us", "us", srvSearch)
	m.set("server.search_us_per_token", "us", ratio(float64(srv.SearchNS)/1e3, float64(srv.Tokens)))
	m.set("server.fetch_us", "us", ratio(float64(srv.FetchNS)/1e3, float64(srv.Fetches)))
	hits := float64(tr.after.StagHits - tr.before.StagHits)
	misses := float64(tr.after.StagMisses - tr.before.StagMisses)
	m.set("sse.stag_cache_hit_ratio", "ratio", ratio(hits, hits+misses))

	m.set("lsm.insert_us", "us", ratio(float64(store.InsertNS)/1e3, float64(store.Inserts)))
	m.set("lsm.delete_us", "us", ratio(float64(store.DeleteNS)/1e3, float64(store.Deletes)))
	m.set("lsm.flush_us", "us", ratio(float64(store.FlushNS)/1e3, float64(store.Flushes)))
	m.set("lsm.query_us", "us", ratio(float64(store.QueryNS)/1e3, float64(store.Queries)))
	m.set("lsm.epochs", "count", float64(tr.after.Epochs))
	delta := func(name string) float64 { return tr.after.Metrics[name] - tr.before.Metrics[name] }
	m.set("lsm.consolidations", "count", delta("rsse_lsm_consolidations_total"))
	writes := float64(store.Inserts + store.Deletes)
	m.set("wal.fsyncs_per_write", "count", ratio(delta("rsse_wal_fsyncs_total"), writes))
	walGrowth := float64(store.WALBytesFlushed) + tr.after.Metrics["rsse_wal_bytes"] - tr.before.Metrics["rsse_wal_bytes"]
	m.set("wal.bytes_per_write", "bytes", ratio(walGrowth, writes))
	m.set("write_p50_ms", "ms", ms(st.acc.wLat.Quantile(0.50)))
	m.set("write_p99_ms", "ms", ms(st.acc.wLat.Quantile(0.99)))

	m.set("server.gc_cycles_per_kop", "count", ratio(float64(tr.after.GCCycles-tr.before.GCCycles)*1000, ops))
	m.set("client.gc_cycles_per_kop", "count", ratio(float64(tr.clientGC)*1000, ops))
	m.set("trace.qps_ratio", "ratio", ratio(tr.qps(), st.qps()))

	for _, k := range practical {
		name := k.String()
		var (
			lat         float64
			ss          schemeSpans
			srvI        CallTotals
			schemeOps   float64
			tokens, fps float64
			trapdoor    time.Duration
		)
		if j := slices.Index(b.w.kinds, k); j >= 0 && len(b.w.kinds) > 1 {
			lat = ms(st.acc.perScheme[j].lat.Quantile(0.50))
			ss = sp.perScheme[j]
			srvI = tr.after.Calls[name].sub(tr.before.Calls[name])
			ps := a.perScheme[j]
			schemeOps = float64(ps.ops)
			tokens, fps = float64(ps.leak.tokens), float64(ps.leak.fps)
			trapdoor = rr.twin.trapdoorPerOp[j]
		}
		m.set("latency_p50_ms."+name, "ms", lat)
		m.set("core.owner_self_us."+name, "us", ratio(us(ss.ownerSelf), float64(ss.owners)))
		m.set("core.trapdoor_us."+name, "us", us(trapdoor))
		m.set("transport.search_rtt_us."+name, "us", ratio(us(ss.searchTime), float64(ss.searches)))
		m.set("server.search_us."+name, "us", ratio(float64(srvI.SearchNS)/1e3, float64(srvI.Searches)))
		m.set("transport.fetches_per_op."+name, "count", ratio(float64(ss.fetches), schemeOps))
		m.set("core.tokens_per_op."+name, "count", ratio(tokens, schemeOps))
		m.set("core.false_positives_per_op."+name, "count", ratio(fps, schemeOps))
	}
	return m
}
