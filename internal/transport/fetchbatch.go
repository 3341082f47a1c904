package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"rsse/internal/core"
)

// The fetch-batch op (10) fetches many raw ids in one round trip — the
// owner-side false-positive filter's whole fetch set in one frame
// instead of one frame per id. The server sees exactly the ids it
// would see as single fetches, and its leakage counter
// (rsse_server_leakage_rawid_fetches_total) counts ids, not frames.
//
//	request  := count(u32) id(u64)×count
//	response := entry×count,  entry := ok(u8) [len(u32) ct]   (ct only when ok=1)

// maxFetchBatch caps the ids one fetch-batch frame carries; the client
// splits larger sets into consecutive frames and the server rejects a
// frame announcing more.
const maxFetchBatch = 4096

// appendFetchBatchRequest encodes ids (at most maxFetchBatch of them).
func appendFetchBatchRequest(dst []byte, ids []core.ID) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst
}

// parseFetchBatchRequest decodes a fetch-batch request. The announced
// count is checked against the cap and the payload length before
// anything is allocated.
func parseFetchBatchRequest(payload []byte) ([]core.ID, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("transport: short fetch-batch request (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload)
	if n > maxFetchBatch {
		return nil, fmt.Errorf("transport: fetch batch of %d ids exceeds the %d cap", n, maxFetchBatch)
	}
	if uint64(len(payload)-4) != uint64(n)*8 {
		return nil, fmt.Errorf("transport: fetch-batch request announces %d ids in %d bytes", n, len(payload)-4)
	}
	ids := make([]core.ID, n)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(payload[4+8*i:])
	}
	return ids, nil
}

// appendFetchBatchEntry encodes one response entry.
func appendFetchBatchEntry(dst, ct []byte, ok bool) []byte {
	if !ok {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ct)))
	return append(dst, ct...)
}

// parseFetchBatchResponse decodes the response to a request for n ids.
// Ciphertexts alias payload (client response bodies are never pooled).
func parseFetchBatchResponse(payload []byte, n int) ([][]byte, []bool, error) {
	// Every entry costs at least its ok byte: bound n by the payload
	// before allocating for it.
	if n < 0 || n > maxFetchBatch || n > len(payload) {
		return nil, nil, fmt.Errorf("transport: fetch-batch response of %d bytes cannot hold %d entries", len(payload), n)
	}
	cts := make([][]byte, n)
	oks := make([]bool, n)
	for i := 0; i < n; i++ {
		if len(payload) < 1 {
			return nil, nil, fmt.Errorf("transport: fetch-batch response truncated at entry %d", i)
		}
		switch payload[0] {
		case 0:
			payload = payload[1:]
			continue
		case 1:
		default:
			return nil, nil, fmt.Errorf("transport: fetch-batch entry %d has bad ok byte %d", i, payload[0])
		}
		if len(payload) < 5 {
			return nil, nil, fmt.Errorf("transport: fetch-batch response truncated at entry %d", i)
		}
		l := binary.BigEndian.Uint32(payload[1:])
		payload = payload[5:]
		if uint64(l) > uint64(len(payload)) {
			return nil, nil, fmt.Errorf("transport: fetch-batch entry %d announces %d bytes, %d left", i, l, len(payload))
		}
		cts[i], oks[i] = payload[:l:l], true
		payload = payload[l:]
	}
	if len(payload) != 0 {
		return nil, nil, fmt.Errorf("transport: %d trailing bytes after fetch-batch response", len(payload))
	}
	return cts, oks, nil
}

// handleFetchBatch serves one fetch-batch request against idx, id by
// id through idx.Fetch — the same lookups the single-fetch op makes.
func handleFetchBatch(idx core.Server, ob *indexObs, payload []byte) ([]byte, error) {
	ids, err := parseFetchBatchRequest(payload)
	if err != nil {
		return nil, err
	}
	ob.fetches.Inc()
	ob.rawIDs.Add(uint64(len(ids)))
	cts, oks := make([][]byte, len(ids)), make([]bool, len(ids))
	for i, id := range ids {
		if cts[i], oks[i], err = idx.Fetch(id); err != nil {
			return nil, err
		}
	}
	size := 0
	for i, ct := range cts {
		size++
		if oks[i] {
			size += 4 + len(ct)
		}
	}
	out := make([]byte, 0, size)
	for i, ct := range cts {
		out = appendFetchBatchEntry(out, ct, oks[i])
	}
	return out, nil
}

// fetchBatch fetches ids over c in frames of at most maxFetchBatch ids.
// A server that predates the op answers it as an unknown request; the
// conn remembers that, and this and every later call on it return
// core.ErrBatchFetchUnsupported so the owner fetches id by id.
func fetchBatch(ctx context.Context, c *Conn, name string, ids []core.ID) ([][]byte, []bool, error) {
	if c.noFetchBatch.Load() {
		return nil, nil, core.ErrBatchFetchUnsupported
	}
	cts := make([][]byte, 0, len(ids))
	oks := make([]bool, 0, len(ids))
	var payload []byte
	for len(ids) > 0 {
		part := ids[:min(len(ids), maxFetchBatch)]
		ids = ids[len(part):]
		payload = appendFetchBatchRequest(payload[:0], part)
		resp, err := c.roundTripContext(ctx, opFetchBatch, name, payload)
		var se serverError
		if errors.As(err, &se) && strings.HasPrefix(string(se), errUnknownOp) {
			c.noFetchBatch.Store(true)
			return nil, nil, fmt.Errorf("%w (%v)", core.ErrBatchFetchUnsupported, err)
		}
		if err != nil {
			return nil, nil, err
		}
		pc, po, err := parseFetchBatchResponse(resp, len(part))
		if err != nil {
			return nil, nil, err
		}
		cts = append(cts, pc...)
		oks = append(oks, po...)
	}
	return cts, oks, nil
}

// FetchBatchContext implements core.BatchFetcher: all ids cross the
// wire in fetch-batch frames of at most maxFetchBatch ids each.
func (h *IndexHandle) FetchBatchContext(ctx context.Context, ids []core.ID) ([][]byte, []bool, error) {
	return fetchBatch(ctx, h.conn, h.name, ids)
}

// FetchBatchContext implements core.BatchFetcher with retries: a batch
// fetch is an idempotent read, and every attempt starts afresh.
func (h *ResilientHandle) FetchBatchContext(ctx context.Context, ids []core.ID) (cts [][]byte, oks []bool, err error) {
	err = h.do(ctx, func(ctx context.Context, c *Conn) error {
		var err error
		cts, oks, err = fetchBatch(ctx, c, h.name, ids)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return cts, oks, nil
}
