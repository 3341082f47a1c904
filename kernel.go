package rsse

import "rsse/internal/sse"

// SearchKernelCacheStats returns the cumulative hits and misses of the
// server-side derived-state stag cache. The counters are process-wide
// (also exported as rsse_stag_cache_hits_total and
// rsse_stag_cache_misses_total); a hit means a repeated stag skipped
// its key schedule (and usually its label PRFs) entirely.
func SearchKernelCacheStats() (hits, misses uint64) { return sse.KernelCacheStats() }

// ResetSearchKernelCache drops the derived-state stag cache and zeroes
// its counters — for interleaved A/B measurements that must not
// inherit a warm cache.
func ResetSearchKernelCache() { sse.ResetKernelCache() }
