//go:build linux

package storage

import "syscall"

// prefetchBytes asks the kernel to read the mapping ahead (madvise
// WILLNEED): the pages stream into the page cache at sequential-read
// bandwidth instead of faulting in one random 4 KiB page per probe.
// Advice is best-effort; failure changes nothing but timing.
func prefetchBytes(data []byte) {
	if len(data) > 0 {
		_ = syscall.Madvise(data, syscall.MADV_WILLNEED)
	}
}

// adviseRandomBytes marks the mapping random-access (madvise RANDOM),
// disabling the kernel's sequential readahead heuristic. Served index
// probes are uniformly scattered — label-keyed dictionary lookups — so
// speculative readahead around each fault is pure wasted I/O and page
// cache.
func adviseRandomBytes(data []byte) {
	if len(data) > 0 {
		_ = syscall.Madvise(data, syscall.MADV_RANDOM)
	}
}
