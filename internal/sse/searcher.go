package sse

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"rsse/internal/prf"
	"rsse/internal/secenc"
)

// cellSearcher is the shared allocation-free machinery of the four
// constructions' Search paths. Per search it costs one pooled checkout,
// the stag's location key (or a cache restore of it), and arena chunks
// for the returned plaintexts; the encryption key and its AES key
// schedule are derived only once a cell is actually found. Everything
// per *cell* — label derivation, dictionary probe, CTR decryption —
// reuses the searcher's scratch.
//
// The arena hands out disjoint regions of append-only chunks, so the
// returned payload slices stay valid after the searcher goes back to
// the pool: a reused searcher keeps carving the same chunk forward and
// never re-slices memory it already handed out.
type cellSearcher struct {
	h     *prf.Hasher // keyed to the stag's location key after getCellSearcher
	blk   cipher.Block
	nonce [aes.BlockSize]byte
	ks    [aes.BlockSize]byte
	lab   [LabelSize]byte // label buffer: a field so Get's interface call cannot force a heap escape
	chunk []byte          // free region of the current arena chunk
	slots []uint64        // twolevel pointer scratch

	// Label window: labels labBase..labBase+labN-1 derived ahead by
	// one EvalUint64N call.
	labs    [labelBatchMax][prf.KeySize]byte
	labBase uint64
	labN    int
	labNext int // window width for the next refill (adaptive)

	// Derived-state cache bookkeeping: the entry this search runs from,
	// its slot, the location-key snapshot, and the contiguous run of
	// first labels observed this search — published back if it extends
	// the entry.
	stag   Stag
	slot   *atomic.Pointer[stagState]
	ent    *stagState // warm entry this search runs from (nil on a miss)
	loc    prf.Snapshot
	first  [labelBatchMax][LabelSize]byte
	firstN int
}

// labelBatchMax caps the label lookahead window and the label prefix a
// stag-cache entry keeps. Eight labels cover most posting lists in one
// window while a wasted window past a list's end stays at a few HMACs,
// and the prefix costs 128 bytes of a ~320-byte cache entry.
const labelBatchMax = 8

var cellSearcherPool = sync.Pool{New: func() any {
	return &cellSearcher{h: prf.NewHasher(prf.Key{})}
}}

// getCellSearcher checks out a searcher keyed for stag. Of the three
// stag-derived keys only loc and enc matter here: the salted bucket key
// steers build-time placement, never search.
//
// The per-stag state comes from the derived-state cache when present:
// a hit restores the location-key snapshot and reuses the shared AES
// block (if an earlier search derived one), skipping the key schedule.
// A miss derives the location key, then publishes the state for the
// next occurrence of the same stag.
func getCellSearcher(stag Stag) *cellSearcher {
	s := cellSearcherPool.Get().(*cellSearcher)
	s.labN, s.labNext = 0, 1
	s.firstN = 0
	s.stag = stag
	s.slot = stagCacheSlot(&stag)
	if e := s.slot.Load(); e != nil && e.stag == stag {
		stagCacheHits.Add(1)
		s.h.Restore(&e.loc)
		s.blk = e.blk
		s.ent = e
		return s
	}
	stagCacheMisses.Add(1)
	s.h.SetKey(prf.Key(stag))
	s.h.SetKey(s.h.Derive("sse/loc"))
	// Publication waits until putCellSearcher so the entry ships with
	// this search's labels in one allocation.
	s.loc = s.h.Snapshot()
	s.ent = nil
	return s
}

// cipherBlock returns the stag's AES block, deriving the encryption key
// on first use and leaving the hasher keyed to the location key again.
func (s *cellSearcher) cipherBlock() cipher.Block {
	if s.blk != nil {
		return s.blk
	}
	s.h.SetKey(prf.Key(s.stag))
	enc := s.h.Derive("sse/enc")
	var err error
	if s.blk, err = aes.NewCipher(enc[:secenc.KeySize]); err != nil {
		panic("sse: " + err.Error())
	}
	if s.ent != nil {
		s.h.Restore(&s.ent.loc)
	} else {
		s.h.Restore(&s.loc)
	}
	return s.blk
}

func putCellSearcher(s *cellSearcher) {
	// Publish the search's derived state — location key, the labels it
	// evaluated, and the AES block if it found a cell — so the next
	// occurrence of the same stag derives nothing. A miss publishes its
	// first entry here; a warm search republishes only when it extended
	// the label run or derived the entry's missing AES block. Entries
	// are immutable; a concurrent search of the same stag may race the
	// store, and either entry is correct (last writer wins).
	if e := s.ent; e == nil {
		s.slot.Store(&stagState{stag: s.stag, loc: s.loc, blk: s.blk, labN: s.firstN, labs: s.first})
	} else if s.firstN > e.labN || (e.blk == nil && s.blk != nil) {
		if s.firstN < e.labN {
			s.first, s.firstN = e.labs, e.labN
		}
		s.slot.Store(&stagState{stag: s.stag, loc: e.loc, blk: s.blk, labN: s.firstN, labs: s.first})
	}
	s.ent = nil
	s.slot = nil
	s.blk = nil
	cellSearcherPool.Put(s)
}

// label computes the i-th cell label under the stag's location key.
// The returned slice is valid until the next label call.
//
// Consecutive labels are gathered into windows derived by one
// EvalUint64N call: the window doubles from one label up to
// labelBatchMax as the posting list proves longer, so empty and
// single-cell lists (the overwhelming majority) derive exactly the
// labels they probe, while long lists amortize staging and bounds
// checks across whole windows. Search loops always probe labels with consecutive i,
// which is what makes the lookahead exact.
func (s *cellSearcher) label(i uint64) []byte {
	// Cached labels first: a warm entry answers the whole stream of a
	// short posting list with zero PRF evaluations.
	if e := s.ent; e != nil && i < uint64(e.labN) {
		if int(i) == s.firstN {
			s.first[i] = e.labs[i]
			s.firstN++
		}
		s.lab = e.labs[i]
		return s.lab[:]
	}
	if s.labN == 0 || i < s.labBase || i >= s.labBase+uint64(s.labN) {
		n := s.labNext
		if n > labelBatchMax {
			n = labelBatchMax
		}
		s.h.EvalUint64N(i, n, s.labs[:n])
		s.labBase, s.labN = i, n
		s.labNext = n * 2
	}
	copy(s.lab[:], s.labs[i-s.labBase][:LabelSize])
	if i < labelBatchMax && int(i) == s.firstN {
		s.first[i] = s.lab
		s.firstN++
	}
	return s.lab[:]
}

// alloc carves an n-byte region out of the arena.
func (s *cellSearcher) alloc(n int) []byte {
	if len(s.chunk) < n {
		s.chunk = make([]byte, max(n, 4096))
	}
	p := s.chunk[:n:n]
	s.chunk = s.chunk[n:]
	return p
}

// decrypt CTR-decrypts the cell encrypted under counter ctr into a
// fresh arena region. The manual counter walk is byte-identical to
// secenc.XORKeyStreamCTR with secenc.NonceFromUint64(ctr): that nonce's
// low 8 bytes start at zero and stdlib CTR increments the whole nonce
// big-endian, so for any cell shorter than 2^64 blocks only the low 8
// bytes ever change.
func (s *cellSearcher) decrypt(ctr uint64, src []byte) []byte {
	dst := s.alloc(len(src))
	blk := s.cipherBlock()
	binary.BigEndian.PutUint64(s.nonce[:8], ctr)
	for off, blkCtr := 0, uint64(0); off < len(src); off, blkCtr = off+aes.BlockSize, blkCtr+1 {
		binary.BigEndian.PutUint64(s.nonce[8:], blkCtr)
		blk.Encrypt(s.ks[:], s.nonce[:])
		n := min(aes.BlockSize, len(src)-off)
		for j := 0; j < n; j++ {
			dst[off+j] = src[off+j] ^ s.ks[j]
		}
	}
	return dst
}
