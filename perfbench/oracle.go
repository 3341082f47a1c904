package main

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"sync"

	"rsse/internal/core"
)

// oracle is the plaintext answer key: the generated tuples as (value,
// id) pairs sorted by value, so a range's ids are one binary search away.
type oracle struct {
	vals  []uint64
	ids   []uint64
	value map[uint64]uint64 // id -> value
}

func newOracle(ts []core.Tuple) *oracle {
	s := slices.Clone(ts)
	slices.SortFunc(s, func(a, b core.Tuple) int {
		if a.Value != b.Value {
			return cmpU64(a.Value, b.Value)
		}
		return cmpU64(a.ID, b.ID)
	})
	o := &oracle{vals: make([]uint64, len(s)), ids: make([]uint64, len(s)), value: make(map[uint64]uint64, len(s))}
	for i, t := range s {
		o.vals[i], o.ids[i] = t.Value, t.ID
		o.value[t.ID] = t.Value
	}
	return o
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// span returns the index interval [lo, hi) of the tuples whose values
// fall in q.
func (o *oracle) span(q core.Range) (int, int) {
	lo := sort.Search(len(o.vals), func(i int) bool { return o.vals[i] >= q.Lo })
	hi := sort.Search(len(o.vals), func(i int) bool { return o.vals[i] > q.Hi })
	return lo, hi
}

// scratch holds the two sort buffers one checking goroutine reuses.
type scratch struct{ want, got []uint64 }

// matches reports whether got holds exactly the ids of the tuples in q,
// in any order and without duplicates.
func (o *oracle) matches(q core.Range, got []uint64, s *scratch) bool {
	lo, hi := o.span(q)
	if hi-lo != len(got) {
		return false
	}
	s.want = append(s.want[:0], o.ids[lo:hi]...)
	s.got = append(s.got[:0], got...)
	slices.Sort(s.want)
	slices.Sort(s.got)
	return slices.Equal(s.want, s.got)
}

// baseIDTag marks the ids of the tuples a workload starts from. The
// write stream tags its ids with the slot in the high 32 bits (slot 0
// writes ids 1, 2, 3, ...), so base ids carry bit 62 instead and the two
// id spaces never meet.
const baseIDTag = uint64(1) << 62

func isBaseID(id uint64) bool { return id&baseIDTag != 0 }

// retagBase moves a generated dataset's ids into the base id space.
func retagBase(ts []core.Tuple) {
	for i := range ts {
		ts[i].ID |= baseIDTag
	}
}

// writePayload is the payload the workload generator attaches to a put:
// the id and the value, big-endian.
func writePayload(id, v uint64) [16]byte {
	var p [16]byte
	binary.BigEndian.PutUint64(p[:8], id)
	binary.BigEndian.PutUint64(p[8:], v)
	return p
}

// putState is what the owner knows about one write-stream tuple.
type putState uint8

const (
	putIssued    putState = iota // sent, not yet acknowledged
	putAcked                     // insert acknowledged
	putDeleted                   // delete acknowledged
	putUncertain                 // an insert or delete of it failed: fate unknown
)

type putRec struct {
	value uint64
	state putState
}

// ledger records every write the owner issued, so answers from a store
// under concurrent writes can be checked: a returned tuple must be a
// base tuple or a put that was issued with that value.
type ledger struct {
	mu   sync.Mutex
	puts map[uint64]putRec
}

func newLedger() *ledger { return &ledger{puts: make(map[uint64]putRec)} }

func (l *ledger) issue(id, v uint64) {
	l.mu.Lock()
	l.puts[id] = putRec{value: v, state: putIssued}
	l.mu.Unlock()
}

func (l *ledger) settle(id uint64, st putState) {
	l.mu.Lock()
	r := l.puts[id]
	r.state = st
	l.puts[id] = r
	l.mu.Unlock()
}

// checkLive reports whether got is a valid answer to q while writes are
// in flight: every base tuple in q appears once, and every other tuple is
// an issued put of that value, in range, with its generated payload.
func (l *ledger) checkLive(base *oracle, q core.Range, got []core.Tuple, s *scratch) bool {
	s.got = s.got[:0]
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range got {
		if !q.Contains(t.Value) {
			return false
		}
		if isBaseID(t.ID) {
			if v, ok := base.value[t.ID]; !ok || v != t.Value {
				return false
			}
			s.got = append(s.got, t.ID)
			continue
		}
		r, ok := l.puts[t.ID]
		p := writePayload(t.ID, t.Value)
		if !ok || r.value != t.Value || !bytes.Equal(t.Payload, p[:]) {
			return false
		}
	}
	lo, hi := base.span(q)
	if hi-lo != len(s.got) {
		return false
	}
	s.want = append(s.want[:0], base.ids[lo:hi]...)
	slices.Sort(s.want)
	slices.Sort(s.got)
	return slices.Equal(s.want, s.got)
}

// checkExact reports whether got is exactly the store's content once no
// write is in flight: the base tuples plus acknowledged puts minus
// acknowledged deletes. Tuples whose write failed may be present or not.
func (l *ledger) checkExact(base *oracle, got []core.Tuple) bool {
	seen := make(map[uint64]bool, len(got))
	baseSeen := 0
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, t := range got {
		if seen[t.ID] {
			return false
		}
		seen[t.ID] = true
		if isBaseID(t.ID) {
			if v, ok := base.value[t.ID]; !ok || v != t.Value {
				return false
			}
			baseSeen++
			continue
		}
		r, ok := l.puts[t.ID]
		if !ok || r.value != t.Value || (r.state != putAcked && r.state != putUncertain) {
			return false
		}
	}
	if baseSeen != len(base.ids) {
		return false
	}
	for id, r := range l.puts {
		if r.state == putAcked && !seen[id] {
			return false
		}
	}
	return true
}
