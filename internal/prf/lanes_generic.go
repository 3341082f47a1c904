package prf

import (
	"encoding/binary"
	"math/bits"
)

// blockLanes applies one SHA-512 compression to each of the first n
// lanes: sts[l] absorbs blks[l]. Lanes are scheduled in pure Go: pairs
// of lanes run through an interleaved compression whose two dependency
// chains overlap in the out-of-order window, and the odd remainder
// takes the scalar function.
func blockLanes(sts *[MaxLanes][8]uint64, blks *[MaxLanes][sha512BlockSize]byte, n int) {
	l := 0
	for ; l+1 < n; l += 2 {
		sha512Block2(&sts[l], &sts[l+1], &blks[l], &blks[l+1])
	}
	if l < n {
		sha512Block(&sts[l], blks[l][:])
	}
}

// sha512Block2 compresses two independent blocks with their round loops
// interleaved. SHA-512's round recurrence is serial, so a single lane
// leaves execution ports idle between dependent adds; a second
// independent chain fills them.
func sha512Block2(stx, sty *[8]uint64, px, py *[sha512BlockSize]byte) {
	var wx, wy [80]uint64
	for i := 0; i < 16; i++ {
		wx[i] = binary.BigEndian.Uint64(px[i*8:])
		wy[i] = binary.BigEndian.Uint64(py[i*8:])
	}
	for i := 16; i < 80; i++ {
		vx1, vy1 := wx[i-2], wy[i-2]
		vx2, vy2 := wx[i-15], wy[i-15]
		wx[i] = (bits.RotateLeft64(vx1, -19) ^ bits.RotateLeft64(vx1, -61) ^ (vx1 >> 6)) + wx[i-7] +
			(bits.RotateLeft64(vx2, -1) ^ bits.RotateLeft64(vx2, -8) ^ (vx2 >> 7)) + wx[i-16]
		wy[i] = (bits.RotateLeft64(vy1, -19) ^ bits.RotateLeft64(vy1, -61) ^ (vy1 >> 6)) + wy[i-7] +
			(bits.RotateLeft64(vy2, -1) ^ bits.RotateLeft64(vy2, -8) ^ (vy2 >> 7)) + wy[i-16]
	}
	ax, bx, cx, dx := stx[0], stx[1], stx[2], stx[3]
	ex, fx, gx, hx := stx[4], stx[5], stx[6], stx[7]
	ay, by, cy, dy := sty[0], sty[1], sty[2], sty[3]
	ey, fy, gy, hy := sty[4], sty[5], sty[6], sty[7]
	for i := 0; i < 80; i++ {
		k := sha512K[i]
		t1x := hx + (bits.RotateLeft64(ex, -14) ^ bits.RotateLeft64(ex, -18) ^ bits.RotateLeft64(ex, -41)) +
			((ex & fx) ^ (^ex & gx)) + k + wx[i]
		t1y := hy + (bits.RotateLeft64(ey, -14) ^ bits.RotateLeft64(ey, -18) ^ bits.RotateLeft64(ey, -41)) +
			((ey & fy) ^ (^ey & gy)) + k + wy[i]
		t2x := (bits.RotateLeft64(ax, -28) ^ bits.RotateLeft64(ax, -34) ^ bits.RotateLeft64(ax, -39)) +
			((ax & bx) ^ (ax & cx) ^ (bx & cx))
		t2y := (bits.RotateLeft64(ay, -28) ^ bits.RotateLeft64(ay, -34) ^ bits.RotateLeft64(ay, -39)) +
			((ay & by) ^ (ay & cy) ^ (by & cy))
		hx, hy = gx, gy
		gx, gy = fx, fy
		fx, fy = ex, ey
		ex, ey = dx+t1x, dy+t1y
		dx, dy = cx, cy
		cx, cy = bx, by
		bx, by = ax, ay
		ax, ay = t1x+t2x, t1y+t2y
	}
	stx[0] += ax
	stx[1] += bx
	stx[2] += cx
	stx[3] += dx
	stx[4] += ex
	stx[5] += fx
	stx[6] += gx
	stx[7] += hx
	sty[0] += ay
	sty[1] += by
	sty[2] += cy
	sty[3] += dy
	sty[4] += ey
	sty[5] += fy
	sty[6] += gy
	sty[7] += hy
}
