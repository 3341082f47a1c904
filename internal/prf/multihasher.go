package prf

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// MaxLanes is the widest lane configuration a MultiHasher supports
// (8×64-bit lanes, the width of one AVX-512 register).
const MaxLanes = 8

// DefaultLanes is the lane width used when callers do not pick one.
// The generic scheduler pairs lanes, so widths beyond a handful only
// grow staging footprint; 4 keeps the working set inside L1.
const DefaultLanes = 4

// MultiHasher evaluates up to MaxLanes independent HMAC-SHA-512 labels
// per pass by interleaving lanes at the compression-function level.
// Each lane carries its own keyed State (SetKey keys them all alike);
// the batched Eval* methods stage one padded block per lane and run the
// whole set through blockLanes — two multi-lane compressions per batch
// instead of two scalar compressions per label, with no per-label state
// marshalling.
//
// A MultiHasher is not safe for concurrent use; pool instances with
// GetMultiHasher/PutMultiHasher.
type MultiHasher struct {
	lanes int
	key   [MaxLanes]State
	st    [MaxLanes][8]uint64
	blk   [MaxLanes][sha512BlockSize]byte
	lbuf  [shortMax]byte // staging for composed labels
}

// NewMultiHasher returns a MultiHasher scheduling the given number of
// lanes (1..MaxLanes; 0 selects DefaultLanes). The lanes are unkeyed
// until SetKey/SetLaneKey/SetLaneState.
func NewMultiHasher(lanes int) (*MultiHasher, error) {
	if lanes == 0 {
		lanes = DefaultLanes
	}
	if lanes < 1 || lanes > MaxLanes {
		return nil, fmt.Errorf("prf: lane count %d outside 1..%d", lanes, MaxLanes)
	}
	return &MultiHasher{lanes: lanes}, nil
}

// Lanes returns the configured lane width.
func (m *MultiHasher) Lanes() int { return m.lanes }

// SetKey keys every lane with k (one key schedule, copied to all
// lanes), for shared-key batches such as a token's cell-label stream.
func (m *MultiHasher) SetKey(k Key) {
	s := MakeState(k)
	for l := 0; l < m.lanes; l++ {
		m.key[l] = s
	}
}

// SetState keys every lane with a prepared State, skipping the key
// schedule entirely (the derived-state cache path).
func (m *MultiHasher) SetState(s State) {
	for l := 0; l < m.lanes; l++ {
		m.key[l] = s
	}
}

// SetLaneKey keys one lane independently, for batches that evaluate
// the same label under many keys (per-leaf setup derivation, GGM).
func (m *MultiHasher) SetLaneKey(lane int, k Key) {
	m.key[lane] = MakeState(k)
}

// SetLaneState keys one lane with a prepared State.
func (m *MultiHasher) SetLaneState(lane int, s State) {
	m.key[lane] = s
}

// LaneState returns lane l's keyed State, e.g. to seed a cache after a
// SetLaneKey batch.
func (m *MultiHasher) LaneState(lane int) State { return m.key[lane] }

// KeyLanes keys lanes [0, n) with keys[0..n) in one batched key
// schedule: the n ipad blocks run through the compression backend
// together, then the n opad blocks — two lane passes instead of the 2n
// scalar compressions of n MakeState calls. States are byte-identical
// to MakeState's. This is what makes key-per-message batches (GGM
// expansion, where every G application is keyed by its own seed) lane
// off the scalar path.
func (m *MultiHasher) KeyLanes(keys []Key, n int) {
	for l := 0; l < n; l++ {
		blk := &m.blk[l]
		for i := range blk {
			blk[i] = 0x36
		}
		for i, b := range keys[l] {
			blk[i] ^= b
		}
		m.st[l] = sha512IV
	}
	blockLanes(&m.st, &m.blk, n)
	for l := 0; l < n; l++ {
		m.key[l].istate = m.st[l]
	}
	for l := 0; l < n; l++ {
		blk := &m.blk[l]
		for i := range blk {
			blk[i] ^= 0x36 ^ 0x5c
		}
		m.st[l] = sha512IV
	}
	blockLanes(&m.st, &m.blk, n)
	for l := 0; l < n; l++ {
		m.key[l].ostate = m.st[l]
	}
}

// finish runs the staged inner blocks of the first n lanes through the
// compression backend, rebuilds the outer blocks from the inner
// digests, and leaves the outer digests in m.st. Callers must have
// staged m.blk[l] and primed m.st[l] with the lane's inner state.
func (m *MultiHasher) finish(n int) {
	blockLanes(&m.st, &m.blk, n)
	for l := 0; l < n; l++ {
		stageOuterBlock(&m.blk[l], &m.st[l])
		m.st[l] = m.key[l].ostate
	}
	blockLanes(&m.st, &m.blk, n)
}

// truncate writes lane l's digest, truncated to KeySize, into out.
func (m *MultiHasher) truncate(l int, out *[KeySize]byte) {
	binary.BigEndian.PutUint64(out[0:], m.st[l][0])
	binary.BigEndian.PutUint64(out[8:], m.st[l][1])
	binary.BigEndian.PutUint64(out[16:], m.st[l][2])
	binary.BigEndian.PutUint64(out[24:], m.st[l][3])
}

// EvalN evaluates the PRF on each message under the shared key set by
// SetKey/SetState, writing 32-byte outputs into out (len(out) >=
// len(msgs)). Batches larger than the lane width are processed in
// lane-width chunks; ragged tails use however many lanes remain.
// Messages longer than one padded block fall back to the scalar
// multi-block path for their lane.
func (m *MultiHasher) EvalN(msgs [][]byte, out [][KeySize]byte) {
	for base := 0; base < len(msgs); base += m.lanes {
		n := len(msgs) - base
		if n > m.lanes {
			n = m.lanes
		}
		for l := 0; l < n; l++ {
			msg := msgs[base+l]
			if len(msg) > shortMax {
				out[base+l] = m.key[l].Eval(msg)
				continue
			}
			stageShortBlock(&m.blk[l], msg)
			m.st[l] = m.key[l].istate
		}
		m.finish(n)
		for l := 0; l < n; l++ {
			if len(msgs[base+l]) > shortMax {
				continue
			}
			m.truncate(l, &out[base+l])
		}
	}
}

// EvalCounters evaluates the PRF on BE(from), BE(from+1), ...,
// BE(from+n-1) under the shared key — a token's cell-label stream —
// writing the 32-byte outputs into out[0..n).
func (m *MultiHasher) EvalCounters(from uint64, n int, out [][KeySize]byte) {
	for base := 0; base < n; base += m.lanes {
		w := n - base
		if w > m.lanes {
			w = m.lanes
		}
		for l := 0; l < w; l++ {
			binary.BigEndian.PutUint64(m.lbuf[:8], from+uint64(base+l))
			stageShortBlock(&m.blk[l], m.lbuf[:8])
			m.st[l] = m.key[l].istate
		}
		m.finish(w)
		for l := 0; l < w; l++ {
			m.truncate(l, &out[base+l])
		}
	}
}

// EvalByteUint64N evaluates the PRF on the 9-byte dyadic-node labels
// bs[i] || BE(vs[i]) under the shared key, writing outputs into
// out[0..len(vs)). len(bs) and len(out) must cover len(vs).
func (m *MultiHasher) EvalByteUint64N(bs []byte, vs []uint64, out [][KeySize]byte) {
	for base := 0; base < len(vs); base += m.lanes {
		w := len(vs) - base
		if w > m.lanes {
			w = m.lanes
		}
		for l := 0; l < w; l++ {
			m.lbuf[0] = bs[base+l]
			binary.BigEndian.PutUint64(m.lbuf[1:9], vs[base+l])
			stageShortBlock(&m.blk[l], m.lbuf[:9])
			m.st[l] = m.key[l].istate
		}
		m.finish(w)
		for l := 0; l < w; l++ {
			m.truncate(l, &out[base+l])
		}
	}
}

// EvalSame evaluates the PRF on one message under each lane's own key
// (SetLaneKey/SetLaneState), for lanes [0, n); out[l] receives lane
// l's output. len(msg) must be <= 111 bytes.
func (m *MultiHasher) EvalSame(msg []byte, n int, out [][KeySize]byte) {
	for l := 0; l < n; l++ {
		stageShortBlock(&m.blk[l], msg)
		m.st[l] = m.key[l].istate
	}
	m.finish(n)
	for l := 0; l < n; l++ {
		m.truncate(l, &out[l])
	}
}

// EvalSameFull is EvalSame without truncation: out[l] receives lane
// l's full 64-byte digest. GGM expansion needs the whole digest to
// split into two child seeds.
func (m *MultiHasher) EvalSameFull(msg []byte, n int, out [][64]byte) {
	for l := 0; l < n; l++ {
		stageShortBlock(&m.blk[l], msg)
		m.st[l] = m.key[l].istate
	}
	m.finish(n)
	for l := 0; l < n; l++ {
		for w := 0; w < 8; w++ {
			binary.BigEndian.PutUint64(out[l][w*8:], m.st[l][w])
		}
	}
}

// DeriveSame derives the labelled subkey of package function Derive
// under each lane's own key, for lanes [0, n) — the batched form of
// Hasher.Derive for priming many per-token search states at once.
func (m *MultiHasher) DeriveSame(label string, n int, out [][KeySize]byte) {
	nb := copy(m.lbuf[:], kdfPrefix)
	nb += copy(m.lbuf[nb:], label)
	m.EvalSame(m.lbuf[:nb], n, out)
}

var multiPool = sync.Pool{New: func() any {
	return &MultiHasher{lanes: DefaultLanes}
}}

// GetMultiHasher returns a pooled MultiHasher at the default lane
// width, unkeyed. Return it with PutMultiHasher.
func GetMultiHasher() *MultiHasher {
	return multiPool.Get().(*MultiHasher)
}

// PutMultiHasher returns m to the pool.
func PutMultiHasher(m *MultiHasher) {
	if m.lanes == DefaultLanes {
		multiPool.Put(m)
	}
}
