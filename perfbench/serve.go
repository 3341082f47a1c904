package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"rsse"
	"rsse/internal/core"
	"rsse/internal/obs"
	"rsse/internal/sse"
	"rsse/internal/transport"
)

// The server half of the benchmark runs in its own process: the parent
// starts it as "perfbench serve", reads "ready <addr>" from its standard
// output, and then drives it over loopback. Its standard input carries
// one-line commands, each answered with one line:
//
//	stats      a ServerStats JSON object
//	timing 0|1 turn call timing in the wrappers off or on ("ok")
//
// End of input shuts the server down.

// ServerStats is the server process's view of itself, cumulative since
// it started; the client takes deltas between phases.
type ServerStats struct {
	GCCycles   uint64
	StagHits   uint64
	StagMisses uint64
	// Metrics holds the obs registry's series without histogram buckets.
	Metrics map[string]float64
	// Calls holds per-index call totals (trace mode only).
	Calls map[string]CallTotals
	// Store holds the writable store's call totals (trace mode only).
	Store *StoreTotals
	// IndexBytes and Tuples size what is served; Epochs counts the
	// writable store's active epochs.
	IndexBytes int64
	Tuples     int64
	Epochs     int
}

// walSyncEvery is the writable store's fsync policy: the WAL fsyncs
// after every 64th write (and on every flush). It stays fixed across
// every comparison. With an fsync per write, rsse-server's default, the
// run-to-run spread of the updates workload on a virtual disk was wider
// than any bound a comparison could use.
const walSyncEvery = 64

func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("dir", "", "serve every *.idx file in `dir` under its base name")
	writable := fs.String("writable", "", "serve the durable Logarithmic-BRC store in `dir`")
	bits := fs.Uint("bits", 16, "domain bits of the writable store")
	step := fs.Int("step", 4, "consolidation step of the writable store")
	traced := fs.Bool("trace", false, "wrap every served index and store in call-timing wrappers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err := serve(*dir, *writable, uint8(*bits), *step, *traced, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	return 0
}

func serve(dir, writable string, bits uint8, step int, traced bool, in io.Reader, out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var timing atomic.Bool
	calls := map[string]*callStats{}
	var store *storeStats
	var indexes []*rsse.Index
	var dyn *rsse.Dynamic
	var shutdown func(context.Context) error
	serveErr := make(chan error, 1)
	if writable != "" {
		dyn, err = rsse.OpenDynamic(writable, rsse.LogarithmicBRC, bits, step, rsse.WithSyncEvery(walSyncEvery))
		if err != nil {
			return err
		}
		defer dyn.Close()
		var ws rsse.WritableStore = dyn
		if traced {
			store = &storeStats{on: &timing}
			ws = &tracedStore{inner: dyn, st: store}
		}
		reg := rsse.NewRegistry()
		if err := reg.RegisterWritable(rsse.DefaultDynamicName, ws); err != nil {
			return err
		}
		srv := rsse.NewServer(reg)
		go func() { serveErr <- srv.Serve(ln) }()
		shutdown = srv.Shutdown
	} else {
		paths, err := filepath.Glob(filepath.Join(dir, "*.idx"))
		if err != nil {
			return err
		}
		if len(paths) == 0 {
			return fmt.Errorf("no *.idx files in %q", dir)
		}
		reg := transport.NewRegistry()
		for _, p := range paths {
			idx, err := rsse.OpenIndexFile(p, "sorted")
			if err != nil {
				return err
			}
			indexes = append(indexes, idx)
			defer idx.Close()
			name := strings.TrimSuffix(filepath.Base(p), ".idx")
			var s core.Server = idx
			if traced {
				calls[name] = &callStats{}
				s = wrapServer(idx, serverHook(calls[name], &timing))
			}
			if err := reg.Register(name, s); err != nil {
				return err
			}
		}
		srv := transport.NewServer(reg)
		go func() { serveErr <- srv.Serve(ln) }()
		shutdown = srv.Shutdown
	}
	if _, err := fmt.Fprintf(out, "ready %s\n", ln.Addr()); err != nil {
		return err
	}

	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var reply []byte
		switch cmd := strings.TrimSpace(sc.Text()); cmd {
		case "stats":
			st := ServerStats{GCCycles: gcCycles(), Calls: map[string]CallTotals{}}
			st.StagHits, st.StagMisses = sse.KernelCacheStats()
			st.Metrics, err = scrapeSelf()
			if err != nil {
				return err
			}
			for name, c := range calls {
				st.Calls[name] = c.snapshot()
			}
			if store != nil {
				s := store.snapshot()
				st.Store = &s
			}
			for _, idx := range indexes {
				s := idx.Stats()
				st.IndexBytes += int64(s.IndexBytes)
				st.Tuples += int64(s.N)
			}
			if dyn != nil {
				st.IndexBytes = int64(dyn.TotalIndexSize())
				st.Epochs = dyn.ActiveIndexes()
			}
			if reply, err = json.Marshal(st); err != nil {
				return err
			}
		case "timing 0", "timing 1":
			timing.Store(cmd == "timing 1")
			reply = []byte("ok")
		default:
			reply = []byte("error unknown command " + cmd)
		}
		if _, err := fmt.Fprintf(out, "%s\n", reply); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, transport.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return sc.Err()
}

// scrapeSelf reads this process's obs registry, dropping histogram
// buckets to keep the reply small.
func scrapeSelf() (map[string]float64, error) {
	var b strings.Builder
	if err := obs.Default.WriteText(&b); err != nil {
		return nil, err
	}
	m, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		return nil, err
	}
	for k := range m {
		if strings.Contains(k, "_bucket") {
			delete(m, k)
		}
	}
	return m, nil
}
