package sse

import (
	"crypto/cipher"
	"encoding/binary"
	"sync/atomic"

	"rsse/internal/prf"
)

// The search kernel runs from a derived-state cache: the per-stag
// search state (the location-keyed PRF snapshot, the first cell labels
// and the AES block cipher) is a pure deterministic function of the
// stag the server already holds, so it can be cached and restored at
// memcpy cost instead of re-derived with HMAC passes and an AES key
// schedule per token. Under skewed (zipf) query streams the same hot
// stags recur constantly and the cache turns almost every token's
// setup into two small copies.
//
// Leakage: the cache is keyed by stags the server observes anyway, and
// a hit produces exactly the same probes, in the same order, as a
// miss. Timing reveals only stag recurrence, which the server already
// sees directly; no new information is created.

// stagState is one immutable cache entry: everything getCellSearcher
// derives from a stag. Entries are shared read-only across goroutines;
// replacement publishes a fresh entry via atomic pointer swap.
//
// Beyond the location key, an entry carries the stag's first labN cell
// labels — also pure PRF-of-stag values, truncated to the LabelSize
// bytes a probe reads. Most posting lists fit the first window, so a
// repeated token's whole label stream comes out of the cache and costs
// no HMAC at all; a search that derives labels the entry lacks
// republishes an extended entry on its way out.
//
// blk is nil until some search of the stag finds a cell: empty posting
// lists (most Constant-scheme leaves, the low levels of most BRC
// covers) never pay the encryption-key derivation or the AES key
// schedule. A search that derives blk for an entry published without
// one republishes the entry with it. An entry without blk is about
// 320 bytes.
type stagState struct {
	stag Stag
	loc  prf.Snapshot // location-keyed hasher state
	blk  cipher.Block // AES block under the stag's encryption key, or nil
	labN int
	labs [labelBatchMax][LabelSize]byte // cell labels 0..labN-1
}

// stagCacheSize bounds the direct-mapped cache. 512k slots hold the
// union working set of a many-client stream over several indexes (a
// 16-bit domain under Logarithmic-BRC alone has ~128k distinct dyadic
// keywords, and direct mapping needs headroom over the populated set to
// keep collisions rare). Entries are allocated on demand and the slot
// table itself on the first search, so a process that never searches —
// an index-building owner — pays nothing, and an idle server only the
// 4 MiB table. Collisions just re-derive: the entry is a pure function
// of the stag, so a stale or evicted entry can never produce a wrong
// result, only a miss.
const stagCacheSize = 1 << 19

type stagTable [stagCacheSize]atomic.Pointer[stagState]

var stagCache atomic.Pointer[stagTable]

var stagCacheHits, stagCacheMisses atomic.Uint64

func stagCacheSlot(stag *Stag) *atomic.Pointer[stagState] {
	t := stagCache.Load()
	if t == nil {
		stagCache.CompareAndSwap(nil, new(stagTable))
		t = stagCache.Load()
	}
	// Stags are PRF outputs: any 8 bytes are already a uniform index.
	return &t[binary.LittleEndian.Uint64(stag[:8])&(stagCacheSize-1)]
}

// KernelCacheStats returns cumulative derived-state cache hits and
// misses, for the ops endpoint and bench reports.
func KernelCacheStats() (hits, misses uint64) {
	return stagCacheHits.Load(), stagCacheMisses.Load()
}

// ResetKernelCache drops every cached entry and zeroes the counters —
// for tests and interleaved A/B runs that must not inherit a warm
// cache.
func ResetKernelCache() {
	if t := stagCache.Load(); t != nil {
		for i := range t {
			t[i].Store(nil)
		}
	}
	stagCacheHits.Store(0)
	stagCacheMisses.Store(0)
}
