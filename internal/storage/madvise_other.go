//go:build !linux

package storage

// Platforms whose syscall package has no Madvise (every GOOS but
// linux): page-residency advice is a no-op. The BSDs and darwin still
// map index files (mmap_unix.go); they just page them in without hints.

func prefetchBytes([]byte) {}

func adviseRandomBytes([]byte) {}
