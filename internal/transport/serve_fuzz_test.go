package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"rsse/internal/core"
)

// fuzzAllocLimit bounds what one fuzz input may make the server
// allocate: a fixed allowance for the serving machinery plus a linear
// budget per input byte. Work is bounded by what the peer sends.
func fuzzAllocLimit(input int) uint64 { return 16<<20 + 1024*uint64(input) }

// serveFuzzSeeds returns one valid request stream per opcode 0-10 and
// an unknown op, plus all of them on one connection.
func serveFuzzSeeds(tb testing.TB, c *core.Client) [][]byte {
	var ts []*core.Trapdoor
	for _, r := range []core.Range{{Lo: 3, Hi: 900}, {Lo: 10, Hi: 10}, {Lo: 0, Hi: 1023}} {
		td, err := c.Trapdoor(r)
		if err != nil {
			tb.Fatal(err)
		}
		ts = append(ts, td)
	}
	one, err := ts[0].MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	batch, err := core.MarshalTrapdoors(ts)
	if err != nil {
		tb.Fatal(err)
	}
	var stream []*core.Trapdoor
	for len(stream) < streamChunkTokens+3 {
		stream = append(stream, ts...)
	}
	streamed, err := core.MarshalTrapdoors(stream)
	if err != nil {
		tb.Fatal(err)
	}
	rng := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 0), 500)
	reqs := []struct {
		op      byte
		name    string
		payload []byte
	}{
		{0, DefaultIndex, nil},
		{opMeta, DefaultIndex, nil},
		{opSearch, DefaultIndex, one},
		{opFetch, DefaultIndex, binary.BigEndian.AppendUint64(nil, 7)},
		{opNames, "", nil},
		{opBatchQuery, DefaultIndex, batch},
		{opUpdate, "dyn", marshalUpdate(Update{Kind: UpdateInsert, ID: 5, Value: 300, Payload: []byte("p")})},
		{opDynFlush, "dyn", nil},
		{opDynQuery, "dyn", rng},
		{opBatchStream, DefaultIndex, streamed},
		{opFetchBatch, DefaultIndex, appendFetchBatchRequest(nil, []core.ID{1, 2, 1 << 40})},
		{200, DefaultIndex, []byte("junk")},
	}
	var seeds [][]byte
	var all bytes.Buffer
	for i, r := range reqs {
		body := appendRequest(uint32(i+1), r.op, r.name, r.payload)
		var one bytes.Buffer
		if err := writeFrame(&one, body); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, one.Bytes())
		all.Write(one.Bytes())
	}
	return append(seeds, all.Bytes())
}

// requestOps maps each request id the server can parse from in to the
// ops sent under it, stopping where the server's read loop stops.
func requestOps(in []byte) map[uint32][]byte {
	ops := make(map[uint32][]byte)
	r := bytes.NewReader(in)
	for {
		body, err := readFrame(r, nil)
		if err != nil {
			return ops
		}
		req, err := parseRequest(body)
		if err != nil {
			return ops
		}
		ops[req.id] = append(ops[req.id], req.op)
	}
}

// FuzzServeConn feeds arbitrary bytes to the one server read path,
// ServeConnRegistry, against a registry holding a small static index
// and a writable store. Whatever the input, the loop must return
// without panicking, every byte it writes must parse as a well-formed
// response frame addressed to a request it read, and the input must
// not make it allocate more than a bound linear in the input's size.
func FuzzServeConn(f *testing.F) {
	c, idx, _ := testClientIndex(f, core.LogarithmicBRC)
	for _, s := range serveFuzzSeeds(f, c) {
		f.Add(s)
	}
	// Warm the process-wide search state (the stag cache's slot table
	// is allocated on the first search) outside the measured window.
	if td, err := c.Trapdoor(core.Range{Lo: 0, Hi: 1023}); err != nil {
		f.Fatal(err)
	} else if _, err := idx.Search(td); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		reg := NewRegistry()
		if err := reg.Register(DefaultIndex, idx); err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterUpdatable("dyn", newMemStore()); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		rw := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(in), &out}
		done := make(chan struct{})
		var alloc uint64
		go func() {
			defer close(done)
			alloc = allocDelta(func() { _ = ServeConnRegistry(rw, reg) })
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serve loop did not return at end of input")
		}
		if limit := fuzzAllocLimit(len(in)); alloc > limit {
			t.Fatalf("serving %d input bytes allocated %d bytes (limit %d)", len(in), alloc, limit)
		}

		ops := requestOps(in)
		r := bytes.NewReader(out.Bytes())
		for r.Len() > 0 {
			body, err := readFrame(r, nil)
			if err != nil {
				t.Fatalf("malformed response frame: %v", err)
			}
			if len(body) < responseHeader {
				t.Fatalf("short response (%d bytes)", len(body))
			}
			id, status := binary.BigEndian.Uint32(body), body[4]
			sent, ok := ops[id]
			if !ok {
				t.Fatalf("response to request id %d the input never carried", id)
			}
			switch status {
			case statusOK, statusErr, statusOverload:
			case statusPartial:
				if !bytes.Contains(sent, []byte{opBatchStream}) {
					t.Fatalf("partial response to id %d, which sent ops %v", id, sent)
				}
			default:
				t.Fatalf("response status %d", status)
			}
		}
	})
}
