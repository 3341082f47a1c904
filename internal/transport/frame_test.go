package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// allocDelta returns the bytes the process heap-allocated while f ran.
func allocDelta(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileFrame is a bare length prefix claiming a 200 MiB body.
func hostileFrame() []byte {
	return binary.BigEndian.AppendUint32(nil, 200<<20)
}

// TestFrameReadAllocBounded: a frame's body is allocated as its bytes
// arrive, not up front for the length its header claims. A header-only
// or truncated frame must cost the server (and the client's read loop)
// well under a megabyte, however large the announced length.
func TestFrameReadAllocBounded(t *testing.T) {
	const limit = 1 << 20
	inputs := map[string][]byte{
		"header-only": hostileFrame(),
		"truncated":   append(hostileFrame(), 1, 2, 3),
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			var err error
			got := allocDelta(func() {
				err = ServeConnRegistry(struct {
					io.Reader
					io.Writer
				}{bytes.NewReader(in), io.Discard}, NewRegistry())
			})
			if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("serve: %v", err)
			}
			if got >= limit {
				t.Errorf("server allocated %d bytes for a %d-byte input", got, len(in))
			}

			cliSide, srvSide := net.Pipe()
			go func() {
				_, _ = srvSide.Write(in)
				srvSide.Close()
			}()
			got = allocDelta(func() {
				conn := NewConn(cliSide)
				defer conn.Close()
				// The read loop records its error only after readFrame
				// returns, so the frame's allocation is inside the window.
				deadline := time.Now().Add(10 * time.Second)
				for conn.Err() == nil && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if conn.Err() == nil {
					t.Error("client read loop survived a truncated response")
				}
			})
			if got >= limit {
				t.Errorf("client allocated %d bytes for a %d-byte response", got, len(in))
			}
		})
	}
}

// TestReadFrameGrows: bodies larger than the first read step arrive
// intact through the stepwise growth, into a nil, small or large buffer.
func TestReadFrameGrows(t *testing.T) {
	for _, n := range []int{0, 1, frameReadStep - 1, frameReadStep, frameReadStep + 1, 5*frameReadStep + 7} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, body); err != nil {
			t.Fatal(err)
		}
		for _, buf := range [][]byte{nil, make([]byte, 0, 16), make([]byte, 0, 3*frameReadStep)} {
			got, err := readFrame(bytes.NewReader(wire.Bytes()), buf)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("n=%d cap=%d: got %d bytes, err %v", n, cap(buf), len(got), err)
			}
			// A body cut short after some of its bytes is an unexpected
			// EOF, also when the cut falls past a growth step.
			if _, err := readFrame(bytes.NewReader(wire.Bytes()[:wire.Len()-1]), buf); n > 1 && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("n=%d cap=%d: truncated body err = %v", n, cap(buf), err)
			}
		}
	}
}
