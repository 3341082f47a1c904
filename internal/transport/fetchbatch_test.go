package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/fault"
)

// FuzzFetchBatch drives both fetch-batch parsers with arbitrary bytes:
// each must return a typed error or a well-formed result that
// re-encodes to exactly its input — never panic, never accept a count
// its payload cannot hold.
func FuzzFetchBatch(f *testing.F) {
	f.Add(appendFetchBatchRequest(nil, []core.ID{1, 2, 1 << 40}), uint16(3))
	f.Add(appendFetchBatchEntry(appendFetchBatchEntry(nil, []byte("ct"), true), nil, false), uint16(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(maxFetchBatch))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0}, uint16(1))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		if ids, err := parseFetchBatchRequest(data); err == nil {
			if len(ids) > maxFetchBatch {
				t.Fatalf("accepted %d ids over the cap", len(ids))
			}
			if got := appendFetchBatchRequest(nil, ids); !bytes.Equal(got, data) {
				t.Fatalf("request re-encodes to %x, want %x", got, data)
			}
		} else if len(data) >= 4 && binary.BigEndian.Uint32(data) <= maxFetchBatch &&
			len(data) == 4+8*int(binary.BigEndian.Uint32(data)) {
			t.Fatalf("well-formed request rejected: %v", err)
		}

		cts, oks, err := parseFetchBatchResponse(data, int(n))
		if err != nil {
			return
		}
		if len(cts) != int(n) || len(oks) != int(n) {
			t.Fatalf("response parsed into %d/%d entries, want %d", len(cts), len(oks), n)
		}
		var re []byte
		for i := range cts {
			if !oks[i] && cts[i] != nil {
				t.Fatalf("entry %d: ciphertext without ok", i)
			}
			re = appendFetchBatchEntry(re, cts[i], oks[i])
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("response re-encodes to %x, want %x", re, data)
		}
	})
}

// TestFetchBatchRequestCap: the server parser rejects a frame over the
// cap or whose announced count disagrees with its length — before it
// allocates for the count.
func TestFetchBatchRequestCap(t *testing.T) {
	ids := make([]core.ID, maxFetchBatch)
	if _, err := parseFetchBatchRequest(appendFetchBatchRequest(nil, ids)); err != nil {
		t.Fatalf("request at the cap rejected: %v", err)
	}
	if _, err := parseFetchBatchRequest(appendFetchBatchRequest(nil, append(ids, 1))); err == nil {
		t.Fatal("request over the cap accepted")
	}
	huge := binary.BigEndian.AppendUint32(nil, 1<<31)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := parseFetchBatchRequest(huge); err == nil {
			t.Fatal("2^31-id announcement accepted")
		}
	})
	// Only the error value may allocate, never the 16 GiB the count asks for.
	if allocs > 3 {
		t.Errorf("rejecting a huge announcement costs %v allocs", allocs)
	}
	short := appendFetchBatchRequest(nil, []core.ID{1, 2, 3})
	if _, err := parseFetchBatchRequest(short[:len(short)-1]); err == nil {
		t.Fatal("truncated request accepted")
	}
	if _, _, err := parseFetchBatchResponse([]byte{0, 0}, maxFetchBatch+1); err == nil {
		t.Fatal("response parser accepted a count over the cap")
	}
	if _, _, err := parseFetchBatchResponse([]byte{0, 0}, 3); err == nil {
		t.Fatal("response parser accepted 3 entries from 2 bytes")
	}
}

// TestFetchBatchSplitsFrames: a fetch set larger than the cap leaves in
// consecutive capped frames, answers every id exactly as single fetches
// do (unknown ids included), and the server's leakage counter counts
// ids while the request counter counts frames.
func TestFetchBatchSplitsFrames(t *testing.T) {
	_, idx, tuples := testClientIndex(t, core.LogarithmicSRC)
	reg := NewRegistry()
	const name = "fetch-split"
	if err := reg.Register(name, idx); err != nil {
		t.Fatal(err)
	}
	conn := pipeRegistry(t, reg)
	h := conn.Index(name)

	ids := make([]core.ID, 2*maxFetchBatch+3)
	for i := range ids {
		ids[i] = core.ID(i%(len(tuples)+7)) + 1 // ids past len(tuples) are unknown
	}
	_, ob, err := reg.lookupServing(name)
	if err != nil {
		t.Fatal(err)
	}
	frames0, raw0 := tm.requests[opFetchBatch].Value(), ob.rawIDs.Value()
	cts, oks, err := h.FetchBatchContext(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.requests[opFetchBatch].Value() - frames0; got != 3 {
		t.Errorf("fetch-batch frames = %d, want 3", got)
	}
	if got := ob.rawIDs.Value() - raw0; got != uint64(len(ids)) {
		t.Errorf("rawid leakage counter += %d, want %d ids", got, len(ids))
	}
	for i, id := range ids {
		ct, ok, err := idx.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok != oks[i] || !bytes.Equal(ct, cts[i]) {
			t.Fatalf("id %d: batch fetch (%v, %d bytes) differs from Fetch (%v, %d bytes)", id, oks[i], len(cts[i]), ok, len(ct))
		}
	}

	// A frame over the cap is refused with a server error; the conn
	// stays usable.
	over := appendFetchBatchRequest(nil, make([]core.ID, maxFetchBatch+1))
	if _, err := conn.roundTrip(opFetchBatch, name, over); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap frame: err = %v, want a cap error", err)
	}
	if _, _, err := h.FetchBatchContext(context.Background(), ids[:5]); err != nil {
		t.Fatalf("conn unusable after a refused frame: %v", err)
	}
}

// plainServer hides every optional interface of the wrapped server, so
// the owner falls back to per-id fetches.
type plainServer struct{ core.Server }

// TestFalsePositiveFilterDifferential runs the SRC schemes' queries —
// single and batched — against a local index, a plain handle, a
// resilient handle and a server without BatchFetcher. Matches, raw
// ids and every leakage count must be identical on all four.
func TestFalsePositiveFilterDifferential(t *testing.T) {
	for _, kind := range []core.Kind{core.LogarithmicSRC, core.LogarithmicSRCi} {
		t.Run(kind.String(), func(t *testing.T) {
			c, idx, tuples := testClientIndex(t, kind)
			pool := NewPoolFunc("pipe", pipeDial(t, idx, nil, nil))
			defer pool.Close()
			rd := NewRedialer(pool, "a", RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Seed: 1})
			servers := map[string]core.Server{
				"local":     idx,
				"handle":    pipeServer(t, idx).Default(),
				"resilient": rd.Default(),
				"per-id":    plainServer{pipeServer(t, idx).Default()},
			}
			if _, ok := servers["per-id"].(core.BatchFetcher); ok {
				t.Fatal("plainServer must not implement BatchFetcher")
			}
			var ranges []core.Range
			for lo := uint64(0); lo < 1024; lo += 37 {
				ranges = append(ranges, core.Range{Lo: lo, Hi: min(1023, lo+lo%211)})
			}
			var oracle []*core.Result
			for _, q := range ranges {
				res, err := c.QueryServer(idx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sortedIDs(res.Matches), exact(tuples, q)) {
					t.Fatalf("local %v: wrong matches", q)
				}
				oracle = append(oracle, res)
			}
			batchOracle, err := c.QueryBatch(idx, ranges)
			if err != nil {
				t.Fatal(err)
			}
			for name, srv := range servers {
				for i, q := range ranges {
					res, err := c.QueryServer(srv, q)
					if err != nil {
						t.Fatalf("%s %v: %v", name, q, err)
					}
					if !sameResult(res, oracle[i]) || !sameLeakage(res.Stats, oracle[i].Stats) {
						t.Fatalf("%s %v: result or leakage differs from local", name, q)
					}
				}
				br, err := c.QueryBatch(srv, ranges)
				if err != nil {
					t.Fatalf("%s batch: %v", name, err)
				}
				for i, res := range br.Results {
					if !reflect.DeepEqual(sortedIDs(res.Matches), exact(tuples, ranges[i])) {
						t.Fatalf("%s batch %v: wrong matches", name, ranges[i])
					}
					if !sameResult(res, batchOracle.Results[i]) || !sameLeakage(res.Stats, batchOracle.Results[i].Stats) {
						t.Fatalf("%s batch %v: result or leakage differs from local", name, ranges[i])
					}
				}
				if br.Stats.FetchedTuples != batchOracle.Stats.FetchedTuples {
					t.Fatalf("%s batch fetched %d tuples, local %d", name, br.Stats.FetchedTuples, batchOracle.Stats.FetchedTuples)
				}
			}
		})
	}
}

// TestFetchBatchResilientRetries: a conn killed under the fetch-batch
// frame is redialed and the frame retried, like any idempotent read.
func TestFetchBatchResilientRetries(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicSRC)
	q := core.Range{Lo: 100, Hi: 700}
	// Conn 0 dies on its third write: meta, search, then fetch-batch.
	in := fault.New(fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Conn: 0, Side: fault.Write, Action: fault.Close, AfterCalls: 3},
	}})
	var dials atomic.Int64
	pool := NewPoolFunc("pipe", pipeDial(t, idx, in, &dials))
	defer pool.Close()
	rd := NewRedialer(pool, "a", RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 2})
	res, err := c.QueryServer(rd.Default(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Raw == 0 {
		t.Fatal("query fetched nothing; the fault never hit a fetch-batch frame")
	}
	if !reflect.DeepEqual(sortedIDs(res.Matches), exact(tuples, q)) {
		t.Fatal("wrong matches after redial")
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (one redial)", got)
	}
	if s := in.Stats(); s.Closes != 1 {
		t.Fatalf("injected closes = %d, want 1", s.Closes)
	}
}

// oldServerDial returns a dial func for servers that predate the
// fetch-batch op: they serve idx under the default name but answer op 10
// the way an older server's request switch does, as an unknown request.
// frames counts the requests each server conn receives, per op.
func oldServerDial(t *testing.T, idx core.Server, frames *[opFetchBatch + 1]atomic.Int64) func(network, addr string) (*Conn, error) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register(DefaultIndex, idx); err != nil {
		t.Fatal(err)
	}
	return func(network, addr string) (*Conn, error) {
		serverEnd, clientEnd := net.Pipe()
		t.Cleanup(func() { serverEnd.Close(); clientEnd.Close() })
		go func() {
			for {
				body, err := readFrame(serverEnd, nil)
				if err != nil {
					return
				}
				req, err := parseRequest(body)
				if err != nil {
					return
				}
				frames[req.op].Add(1)
				status, out := statusOK, []byte(nil)
				if req.op == opFetchBatch {
					status, out = statusErr, []byte("transport: unknown request type 10")
				} else if out, err = handleRequest(reg, req); err != nil {
					status, out = statusErr, []byte(err.Error())
				}
				hdr := append(binary.BigEndian.AppendUint32(nil, req.id), status)
				if writeFrame(serverEnd, hdr, out) != nil {
					return
				}
			}
		}()
		return NewConn(clientEnd), nil
	}
}

// TestFetchBatchOldServerFallback: against a server that answers the
// fetch-batch op as unknown, SRC and SRC-i queries — single and batched,
// over a plain and a resilient handle — fall back to per-id fetches with
// exact answers, and each conn sends the op only once.
func TestFetchBatchOldServerFallback(t *testing.T) {
	for _, kind := range []core.Kind{core.LogarithmicSRC, core.LogarithmicSRCi} {
		t.Run(kind.String(), func(t *testing.T) {
			c, idx, tuples := testClientIndex(t, kind)
			var frames [opFetchBatch + 1]atomic.Int64
			dial := oldServerDial(t, idx, &frames)
			conn, err := dial("pipe", "old")
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPoolFunc("pipe", dial)
			defer pool.Close()
			rd := NewRedialer(pool, "old", RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, Seed: 1})
			var ranges []core.Range
			for lo := uint64(0); lo < 1024; lo += 97 {
				ranges = append(ranges, core.Range{Lo: lo, Hi: min(1023, lo+200)})
			}
			for name, srv := range map[string]core.Server{"handle": conn.Default(), "resilient": rd.Default()} {
				batch0, fetch0 := frames[opFetchBatch].Load(), frames[opFetch].Load()
				var fetched int64
				for _, q := range ranges {
					res, err := c.QueryServer(srv, q)
					if err != nil {
						t.Fatalf("%s %v: %v", name, q, err)
					}
					if !reflect.DeepEqual(sortedIDs(res.Matches), exact(tuples, q)) {
						t.Fatalf("%s %v: wrong matches", name, q)
					}
					fetched += int64(len(res.Raw))
				}
				br, err := c.QueryBatch(srv, ranges)
				if err != nil {
					t.Fatalf("%s batch: %v", name, err)
				}
				for i, res := range br.Results {
					if !reflect.DeepEqual(sortedIDs(res.Matches), exact(tuples, ranges[i])) {
						t.Fatalf("%s batch %v: wrong matches", name, ranges[i])
					}
				}
				fetched += int64(br.Stats.FetchedTuples)
				if fetched == 0 {
					t.Fatalf("%s: no query fetched a tuple", name)
				}
				if got := frames[opFetchBatch].Load() - batch0; got != 1 {
					t.Errorf("%s: %d fetch-batch frames, want 1 (the conn remembers the refusal)", name, got)
				}
				if got := frames[opFetch].Load() - fetch0; got != fetched {
					t.Errorf("%s: %d single fetches, want %d", name, got, fetched)
				}
			}
		})
	}
}

func sortedIDs(ids []core.ID) []core.ID {
	if len(ids) == 0 {
		return nil
	}
	out := append([]core.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameLeakage(a, b core.QueryStats) bool {
	return a.Tokens == b.Tokens && a.TokenBytes == b.TokenBytes && a.ResponseItems == b.ResponseItems &&
		a.Raw == b.Raw && a.FalsePositives == b.FalsePositives && a.Rounds == b.Rounds
}
