package sse

import (
	"bytes"
	mrand "math/rand"
	"sync"
	"testing"

	"rsse/internal/race"
	"rsse/internal/secenc"
)

// TestSearcherDecryptMatchesStdlibCTR pins the manual counter walk to
// the stdlib CTR stream for every cell shape the constructions produce:
// sub-block, exact-block and multi-block cells, across many counters.
func TestSearcherDecryptMatchesStdlibCTR(t *testing.T) {
	rnd := mrand.New(mrand.NewSource(5))
	var stag Stag
	rnd.Read(stag[:])
	for _, n := range []int{1, 8, 15, 16, 17, 32, 129, 4096} {
		src := make([]byte, n)
		rnd.Read(src)
		for _, ctr := range []uint64{0, 1, 255, 1 << 32, ^uint64(0)} {
			s := getCellSearcher(stag)
			got := s.decrypt(ctr, src)
			putCellSearcher(s)
			// Reference: the searcher's enc key is Derive(stag, "sse/enc")
			// truncated, exactly deriveStagKeys' (salt is bkt-only).
			keys := deriveStagKeys(stag, 12345)
			want := secenc.XORKeyStreamCTR(keys.enc, secenc.NonceFromUint64(ctr), src)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d ctr=%d: manual CTR diverges from secenc", n, ctr)
			}
		}
	}
}

// TestSearcherLabelMatchesCellLabel pins the rekeyed hasher's label
// derivation to the build side's cellLabel.
func TestSearcherLabelMatchesCellLabel(t *testing.T) {
	var stag Stag
	stag[7] = 9
	keys := deriveStagKeys(stag, 0)
	s := getCellSearcher(stag)
	defer putCellSearcher(s)
	for i := uint64(0); i < 100; i++ {
		want := cellLabel(keys.loc, i)
		if !bytes.Equal(s.label(i), want[:]) {
			t.Fatalf("label %d diverges from cellLabel", i)
		}
	}
}

// TestSearcherArenaDisjoint: regions handed out before a searcher goes
// back to the pool must never be re-sliced by later checkouts.
func TestSearcherArenaDisjoint(t *testing.T) {
	var stag Stag
	var held [][]byte
	var want []byte
	for round := 0; round < 200; round++ {
		s := getCellSearcher(stag)
		p := s.alloc(24)
		for i := range p {
			p[i] = byte(round)
		}
		held = append(held, p)
		want = append(want, byte(round))
		putCellSearcher(s)
	}
	for i, p := range held {
		for _, b := range p {
			if b != want[i] {
				t.Fatalf("arena region %d clobbered by a later checkout", i)
			}
		}
	}
}

// TestSearchAllocsPerCell: steady-state Search cost must be bounded by
// a handful of allocations per call (result headers and arena chunks),
// not ~10 per cell as the naive path costs.
func TestSearchAllocsPerCell(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	const postings = 64
	var stag Stag
	stag[0] = 1
	payloads := make([][]byte, postings)
	for i := range payloads {
		payloads[i] = U64Payload(uint64(i))
	}
	entries := []Entry{{Stag: stag, Payloads: payloads}}
	rnd := mrand.New(mrand.NewSource(6))
	for _, sch := range []Scheme{Basic{}, Packed{}, TSet{BucketCapacity: 128, Expansion: 1.5}, TwoLevel{}} {
		idx, err := sch.Build(entries, 8, rnd, nil)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		f := func() {
			if _, err := idx.Search(stag); err != nil {
				t.Fatal(err)
			}
		}
		f() // warm pools and arena
		// Budget: result [][]byte growth + AES schedule + amortized arena
		// chunks. The old path cost ~10 allocs *per cell*; 12 per search
		// total is the regression tripwire.
		if n := testing.AllocsPerRun(100, f); n > 12 {
			t.Errorf("%s: Search costs %v allocs for %d postings, want <= 12", sch.Name(), n, postings)
		}
	}
}

// TestStagCacheLazyCipherAcrossIndexes: the cache is keyed by stag
// alone, so two indexes under one key share entries. A stag that is
// empty in the first index publishes an entry without an AES block;
// the second index, where the same stag has cells, must derive the
// block lazily from that warm entry, decrypt correctly, and republish
// the entry with the block so a third search derives nothing.
func TestStagCacheLazyCipherAcrossIndexes(t *testing.T) {
	// TwoLevel probes only label 0, so its warm search extends no label
	// run: the AES block alone must trigger the republication.
	for _, sch := range append(testSchemes(), TwoLevel{}) {
		ResetKernelCache()
		hot := stagOf(t, "shared")
		ids := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
		other := buildTestIndex(t, sch, map[string][]uint64{"unrelated": {7}})
		full := buildTestIndex(t, sch, map[string][]uint64{"shared": ids})

		if got, err := other.Search(hot); err != nil || len(got) != 0 {
			t.Fatalf("%s: empty search = %d payloads, %v", sch.Name(), len(got), err)
		}
		e := stagCacheSlot(&hot).Load()
		if e == nil || e.stag != hot || e.blk != nil {
			t.Fatalf("%s: empty search must publish an entry without an AES block", sch.Name())
		}

		for round := 0; round < 2; round++ {
			if got := searchIDs(t, full, "shared"); !equalIDs(got, sortedCopy(ids)) {
				t.Fatalf("%s round %d: got %v, want %v", sch.Name(), round, got, sortedCopy(ids))
			}
			e = stagCacheSlot(&hot).Load()
			if e == nil || e.blk == nil {
				t.Fatalf("%s round %d: entry not republished with its AES block", sch.Name(), round)
			}
		}
		if hits, misses := KernelCacheStats(); misses != 1 || hits != 2 {
			t.Errorf("%s: hits/misses = %d/%d, want 2/1", sch.Name(), hits, misses)
		}
		// The empty index still answers empty from the now-keyed entry.
		if got, err := other.Search(hot); err != nil || len(got) != 0 {
			t.Fatalf("%s: empty search after warm-up = %d payloads, %v", sch.Name(), len(got), err)
		}
	}
	ResetKernelCache()
}

// TestStagCacheConcurrent searches shared stags from many goroutines,
// starting from an unallocated slot table, so the table's first-search
// allocation, entry publication and the lazy AES republication all
// race. Every answer must stay exact (run under -race).
func TestStagCacheConcurrent(t *testing.T) {
	db := map[string][]uint64{}
	for i := 0; i < 40; i++ {
		db[string(rune('a'+i%26))+string(rune('0'+i/26))] = []uint64{uint64(i), uint64(i + 100), uint64(i + 200)}
	}
	full := buildTestIndex(t, Basic{}, db)
	empty := buildTestIndex(t, Basic{}, map[string][]uint64{"none": {1}})
	stagCache.Store(nil)
	t.Cleanup(ResetKernelCache)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for kw, ids := range db {
					idx := full
					if (g+round)%3 == 0 {
						idx = empty
						ids = nil
					}
					got, err := idx.Search(stagOf(t, kw))
					if err != nil {
						t.Error(err)
						return
					}
					out := make([]uint64, len(got))
					for i, p := range got {
						out[i] = PayloadU64(p)
					}
					if !equalIDs(sortedCopy(out), sortedCopy(ids)) {
						t.Errorf("goroutine %d: %q = %v, want %v", g, kw, out, ids)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
