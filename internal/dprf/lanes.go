package dprf

import (
	"slices"
	"sync/atomic"

	"rsse/internal/prf"
)

// GGM expansion through the multi-lane PRF kernel. A level of the GGM
// tree holds 2^depth independent seeds, each needing one G application
// — HMAC-SHA-512 keyed by the seed itself — so the level lanes
// perfectly: KeyLanes runs the seeds' key schedules together,
// EvalSameFull runs their digests together, and the 64-byte outputs
// split into the children exactly as the scalar walk does. Outputs are
// byte-identical to ExpandInto's (see TestExpandIntoLanes).
//
// The mode is off by default: with the stdlib's assembly SHA-512
// backing the scalar path and the pure-Go pairing scheduler backing
// blockLanes, scalar still wins on this generation of hardware (see
// BenchmarkExpand*).

// batchedExpand selects lane-batched GGM expansion for ExpandInto.
var batchedExpand atomic.Bool

// SetBatchedExpand routes ExpandInto through the multi-lane PRF kernel
// (true) or the scalar walk (false, the default). Safe to flip at
// runtime; results are byte-identical either way.
func SetBatchedExpand(on bool) { batchedExpand.Store(on) }

// BatchedExpandEnabled reports whether lane-batched expansion is on.
func BatchedExpandEnabled() bool { return batchedExpand.Load() }

// ExpandIntoLanes is ExpandInto evaluated through m's lane kernel:
// each tree level's G applications run in lane-width batches. dst
// grows by exactly 2^t.Level values, byte-identical to ExpandInto's.
func (e *Expander) ExpandIntoLanes(m *prf.MultiHasher, dst []Value, t Token) []Value {
	width := 1 << t.Level
	base := len(dst)
	dst = slices.Grow(dst, width)[:base+width]
	s := dst[base:]
	s[0] = t.Value
	lanes := m.Lanes()
	var keys [prf.MaxLanes]prf.Key
	var digs [prf.MaxLanes][64]byte
	for depth := 0; depth < int(t.Level); depth++ {
		// Chunks walk the level downward, like the scalar loop: a chunk's
		// children land at indices >= 2*i0, which never clobbers a seed a
		// later (lower) chunk still has to read.
		for hi := 1 << depth; hi > 0; {
			w := min(lanes, hi)
			i0 := hi - w
			for l := 0; l < w; l++ {
				keys[l] = prf.Key(s[i0+l])
			}
			m.KeyLanes(keys[:w], w)
			m.EvalSameFull(ggmLabel, w, digs[:w])
			for l := w - 1; l >= 0; l-- {
				i := i0 + l
				s[2*i] = Value(digs[l][:Size])
				s[2*i+1] = Value(digs[l][Size : 2*Size])
			}
			hi = i0
		}
	}
	return dst
}
