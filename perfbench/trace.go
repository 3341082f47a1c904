package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rsse"
	"rsse/internal/core"
	"rsse/internal/obs"
)

// Spans are taken only at boundaries the benchmark reaches from outside
// the program: the generator op, the owner call, each call into the
// transport (through tracedServer on the client), and in the server
// process each call into the served core.Server or WritableStore.

type spanName uint8

const (
	spanOp     spanName = iota // one generated op, send to answer
	spanOwner                  // the owner call that executes it
	spanSearch                 // a search call into the transport
	spanFetch                  // a fetch call into the transport
)

var spanNames = [...]string{"op", "owner", "search", "fetch"}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent indexes the same recorder, -1 for a root.
type span struct {
	start, end int64
	op         uint32
	parent     int32
	trapdoors  int32
	name       spanName
	scheme     int8
}

// recorder keeps one slot's spans in memory. Its lock is uncontended
// except when an owner call fans out (parallel false-positive fetches).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name spanName, parent int32, op uint32, scheme int8, trapdoors int) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{start: now, end: -1, op: op, parent: parent,
		trapdoors: int32(trapdoors), name: name, scheme: scheme})
	r.mu.Unlock()
	return i
}

func (r *recorder) end(i int32) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// spanCtx travels in the context of a traced owner call so the transport
// wrapper knows where to record and under which parent.
type spanCtx struct {
	rec    *recorder
	parent int32
	op     uint32
	scheme int8
}

type spanKey struct{}

func withSpan(ctx context.Context, sc *spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

// clientHook records a transport span under the owner span in ctx; it
// records nothing for an untraced context.
func clientHook(ctx context.Context, name spanName, ts []*core.Trapdoor) func() {
	sc, _ := ctx.Value(spanKey{}).(*spanCtx)
	if sc == nil {
		return func() {}
	}
	i := sc.rec.begin(name, sc.parent, sc.op, sc.scheme, len(ts))
	return func() { sc.rec.end(i) }
}

// callHook observes one call into a core.Server: it is told the call's
// kind and trapdoors before the call and returns what runs after it.
type callHook func(ctx context.Context, name spanName, ts []*core.Trapdoor) func()

// tracedServer wraps a core.Server so every search and fetch passes a
// hook. It implements each optional interface core probes for and, where
// the wrapped server lacks one, falls back exactly as core would, so a
// traced query takes the same code path and sends the same bytes as an
// untraced one.
type tracedServer struct {
	inner core.Server
	hook  callHook
}

func (t *tracedServer) Meta() (core.IndexMeta, error) { return t.inner.Meta() }

func (t *tracedServer) Search(tr *core.Trapdoor) (*core.Response, error) {
	defer t.hook(context.Background(), spanSearch, []*core.Trapdoor{tr})()
	return t.inner.Search(tr)
}

func (t *tracedServer) SearchContext(ctx context.Context, tr *core.Trapdoor) (*core.Response, error) {
	defer t.hook(ctx, spanSearch, []*core.Trapdoor{tr})()
	if cs, ok := t.inner.(core.ContextSearcher); ok {
		return cs.SearchContext(ctx, tr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.inner.Search(tr)
}

func (t *tracedServer) SearchBatch(ts []*core.Trapdoor) ([]*core.Response, error) {
	defer t.hook(context.Background(), spanSearch, ts)()
	if bs, ok := t.inner.(core.BatchSearcher); ok {
		return bs.SearchBatch(ts)
	}
	return searchEach(context.Background(), t.inner, ts)
}

func (t *tracedServer) SearchBatchContext(ctx context.Context, ts []*core.Trapdoor) ([]*core.Response, error) {
	defer t.hook(ctx, spanSearch, ts)()
	switch v := t.inner.(type) {
	case core.ContextBatchSearcher:
		return v.SearchBatchContext(ctx, ts)
	case core.BatchSearcher:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return v.SearchBatch(ts)
	}
	return searchEach(ctx, t.inner, ts)
}

func (t *tracedServer) Fetch(id core.ID) ([]byte, bool, error) {
	defer t.hook(context.Background(), spanFetch, nil)()
	return t.inner.Fetch(id)
}

func (t *tracedServer) FetchContext(ctx context.Context, id core.ID) ([]byte, bool, error) {
	defer t.hook(ctx, spanFetch, nil)()
	if cf, ok := t.inner.(core.ContextFetcher); ok {
		return cf.FetchContext(ctx, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return t.inner.Fetch(id)
}

// searchEach is core's per-trapdoor fallback for servers without batch
// search.
func searchEach(ctx context.Context, s core.Server, ts []*core.Trapdoor) ([]*core.Response, error) {
	out := make([]*core.Response, len(ts))
	for i, tr := range ts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := s.Search(tr)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// tracedIndex is tracedServer for a served *core.Index, which also
// reports Stats to the registry.
type tracedIndex struct {
	tracedServer
	stats interface{ Stats() core.IndexStats }
}

func (t *tracedIndex) Stats() core.IndexStats { return t.stats.Stats() }

// wrapServer wraps s, keeping Stats when s has it.
func wrapServer(s core.Server, hook callHook) core.Server {
	ts := tracedServer{inner: s, hook: hook}
	if st, ok := s.(interface{ Stats() core.IndexStats }); ok {
		return &tracedIndex{tracedServer: ts, stats: st}
	}
	return &ts
}

// callStats aggregates the calls into one served index. The server
// cannot join its calls to client ops (no correlation id crosses the
// wire), so it reports per-index totals and the client takes deltas per
// phase.
type callStats struct {
	Searches atomic.Uint64
	SearchNS atomic.Uint64
	Tokens   atomic.Uint64
	Fetches  atomic.Uint64
	FetchNS  atomic.Uint64
}

// CallTotals is the JSON snapshot of callStats.
type CallTotals struct {
	Searches, SearchNS, Tokens, Fetches, FetchNS uint64
}

func (c *callStats) snapshot() CallTotals {
	return CallTotals{c.Searches.Load(), c.SearchNS.Load(), c.Tokens.Load(),
		c.Fetches.Load(), c.FetchNS.Load()}
}

func (a CallTotals) sub(b CallTotals) CallTotals {
	return CallTotals{a.Searches - b.Searches, a.SearchNS - b.SearchNS, a.Tokens - b.Tokens,
		a.Fetches - b.Fetches, a.FetchNS - b.FetchNS}
}

func (a CallTotals) add(b CallTotals) CallTotals {
	return CallTotals{a.Searches + b.Searches, a.SearchNS + b.SearchNS, a.Tokens + b.Tokens,
		a.Fetches + b.Fetches, a.FetchNS + b.FetchNS}
}

// serverHook aggregates calls into c while on is set.
func serverHook(c *callStats, on *atomic.Bool) callHook {
	return func(_ context.Context, name spanName, ts []*core.Trapdoor) func() {
		if !on.Load() {
			return func() {}
		}
		start := time.Now()
		return func() {
			d := uint64(time.Since(start))
			if name == spanFetch {
				c.Fetches.Add(1)
				c.FetchNS.Add(d)
				return
			}
			tokens := 0
			for _, t := range ts {
				tokens += t.Tokens()
			}
			c.Searches.Add(1)
			c.SearchNS.Add(d)
			c.Tokens.Add(uint64(tokens))
		}
	}
}

// storeStats aggregates calls into a served WritableStore. The leakage
// counters (from each query's UpdateStats) always accumulate, so traced
// and untraced passes can be compared; timings only while on is set.
type storeStats struct {
	on                                   *atomic.Bool
	Inserts, InsertNS, Deletes, DeleteNS atomic.Uint64
	Flushes, FlushNS, Queries, QueryNS   atomic.Uint64
	Tokens, TokenBytes, RawIDs, FalsePos atomic.Uint64
	ResultTuples, WALBytesFlushed        atomic.Uint64
}

// StoreTotals is the JSON snapshot of storeStats.
type StoreTotals struct {
	Inserts, InsertNS, Deletes, DeleteNS uint64
	Flushes, FlushNS, Queries, QueryNS   uint64
	Tokens, TokenBytes, RawIDs, FalsePos uint64
	ResultTuples, WALBytesFlushed        uint64
}

func (s *storeStats) snapshot() StoreTotals {
	return StoreTotals{s.Inserts.Load(), s.InsertNS.Load(), s.Deletes.Load(), s.DeleteNS.Load(),
		s.Flushes.Load(), s.FlushNS.Load(), s.Queries.Load(), s.QueryNS.Load(),
		s.Tokens.Load(), s.TokenBytes.Load(), s.RawIDs.Load(), s.FalsePos.Load(),
		s.ResultTuples.Load(), s.WALBytesFlushed.Load()}
}

func (a StoreTotals) sub(b StoreTotals) StoreTotals {
	return StoreTotals{a.Inserts - b.Inserts, a.InsertNS - b.InsertNS, a.Deletes - b.Deletes,
		a.DeleteNS - b.DeleteNS, a.Flushes - b.Flushes, a.FlushNS - b.FlushNS,
		a.Queries - b.Queries, a.QueryNS - b.QueryNS, a.Tokens - b.Tokens,
		a.TokenBytes - b.TokenBytes, a.RawIDs - b.RawIDs, a.FalsePos - b.FalsePos,
		a.ResultTuples - b.ResultTuples, a.WALBytesFlushed - b.WALBytesFlushed}
}

// timed runs f, adding its duration to ns and one to n while timing is on.
func (s *storeStats) timed(n, ns *atomic.Uint64, f func() error) error {
	if !s.on.Load() {
		return f()
	}
	start := time.Now()
	err := f()
	n.Add(1)
	ns.Add(uint64(time.Since(start)))
	return err
}

// walBytes is the current size of the write-ahead log, as the wal layer
// reports it on the shared metrics registry.
var walBytes = obs.Default.Gauge("rsse_wal_bytes", "Current write-ahead log size in bytes.")

// tracedStore wraps the served WritableStore with storeStats.
type tracedStore struct {
	inner rsse.WritableStore
	st    *storeStats
}

func (t *tracedStore) Insert(id rsse.ID, v rsse.Value, payload []byte) error {
	return t.st.timed(&t.st.Inserts, &t.st.InsertNS, func() error { return t.inner.Insert(id, v, payload) })
}

func (t *tracedStore) Delete(id rsse.ID, v rsse.Value) error {
	return t.st.timed(&t.st.Deletes, &t.st.DeleteNS, func() error { return t.inner.Delete(id, v) })
}

func (t *tracedStore) Modify(id rsse.ID, oldV, newV rsse.Value, payload []byte) error {
	return t.inner.Modify(id, oldV, newV, payload)
}

func (t *tracedStore) Flush() error {
	// A flush resets the log, so the bytes it held are counted first.
	t.st.WALBytesFlushed.Add(uint64(max(walBytes.Value(), 0)))
	return t.st.timed(&t.st.Flushes, &t.st.FlushNS, t.inner.Flush)
}

func (t *tracedStore) Query(q rsse.Range) ([]rsse.Tuple, rsse.UpdateStats, error) {
	var (
		out []rsse.Tuple
		us  rsse.UpdateStats
	)
	err := t.st.timed(&t.st.Queries, &t.st.QueryNS, func() error {
		var err error
		out, us, err = t.inner.Query(q)
		return err
	})
	if err == nil {
		t.st.Tokens.Add(uint64(us.Tokens))
		t.st.TokenBytes.Add(uint64(us.TokenBytes))
		t.st.RawIDs.Add(uint64(us.Raw))
		t.st.FalsePos.Add(uint64(us.FalsePositives))
		t.st.ResultTuples.Add(uint64(len(out)))
	}
	return out, us, err
}

// layerTotals is what one traced phase's client spans add up to.
type layerTotals struct {
	ops, ownerCalls     int
	ownerSelf           time.Duration
	searches, trapdoors int
	searchTime          time.Duration
	fetches             int
	fetchTime           time.Duration
	perScheme           [maxSchemes]schemeSpans
}

type schemeSpans struct {
	ops, owners, searches, fetches int
	ownerSelf, searchTime          time.Duration
}

// sumSpans folds every recorder's spans into per-layer totals. A layer's
// self time is its span minus the part of it its child spans cover.
func sumSpans(recs []*recorder) layerTotals {
	var lt layerTotals
	for _, r := range recs {
		r.mu.Lock()
		spans := r.spans
		r.mu.Unlock()
		children := make(map[int32][][2]int64)
		for _, s := range spans {
			if s.end < 0 {
				continue
			}
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
			}
			ps := &lt.perScheme[s.scheme]
			d := time.Duration(s.end - s.start)
			switch s.name {
			case spanOp:
				lt.ops++
				ps.ops++
			case spanSearch:
				lt.searches++
				lt.trapdoors += int(s.trapdoors)
				lt.searchTime += d
				ps.searches++
				ps.searchTime += d
			case spanFetch:
				lt.fetches++
				lt.fetchTime += d
				ps.fetches++
			}
		}
		for i, s := range spans {
			if s.name != spanOwner || s.end < 0 {
				continue
			}
			self := time.Duration(s.end-s.start) - covered(s.start, s.end, children[int32(i)])
			lt.ownerCalls++
			lt.ownerSelf += self
			lt.perScheme[s.scheme].owners++
			lt.perScheme[s.scheme].ownerSelf += self
		}
	}
	return lt
}

// covered returns how much of [start, end) the intervals cover,
// counting overlaps once.
func covered(start, end int64, iv [][2]int64) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmpI64(a[0], b[0]) })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		lo, hi := max(v[0], start), min(v[1], end)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
			continue
		}
		curHi = max(curHi, hi)
	}
	total += curHi - curLo
	return time.Duration(total)
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// writeSpans writes every recorded span to path as tab-separated lines:
// slot, index, parent, op, name, scheme, start ns, end ns, trapdoors.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "slot\tspan\tparent\top\tname\tscheme\tstart_ns\tend_ns\ttrapdoors")
	for si, r := range recs {
		r.mu.Lock()
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", si, i, s.parent, s.op,
				spanNames[s.name], s.scheme, s.start, s.end, s.trapdoors)
		}
		r.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
