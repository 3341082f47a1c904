package rsse_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"rsse"
	"rsse/internal/obs"
)

// TestFalsePositiveFetchLeakage queries the false-positive schemes
// remotely: the owner's filter fetches every raw id the server returned
// in fetch-batch frames, and the server's raw-id leakage counter must
// count exactly those ids — one per id, not one per frame.
func TestFalsePositiveFetchLeakage(t *testing.T) {
	for _, kind := range []rsse.Kind{rsse.LogarithmicSRC, rsse.LogarithmicSRCi} {
		t.Run(kind.String(), func(t *testing.T) {
			client, index, _ := remoteTestData(t, kind, 78)
			reg := rsse.NewRegistry()
			name := "obs-fp-" + kind.String()
			if err := reg.Register(name, index); err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := rsse.NewServer(reg)
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(l) }()
			opsAddr, stopOps, err := obs.Serve("127.0.0.1:0", obs.Default, obs.NewReadiness())
			if err != nil {
				t.Fatal(err)
			}
			defer stopOps()

			before, err := obs.Scrape(opsAddr)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := rsse.DialIndex("tcp", l.Addr().String(), name)
			if err != nil {
				t.Fatal(err)
			}
			var fetched, queries uint64
			for i := 0; i < 12; i++ {
				lo := uint64(i * 80)
				res, err := client.QueryRemote(remote, rsse.Range{Lo: lo, Hi: lo + 70})
				if err != nil {
					t.Fatal(err)
				}
				fetched += uint64(res.Stats.Raw)
				if res.Stats.Raw > 0 {
					queries++
				}
			}
			if err := remote.Close(); err != nil {
				t.Fatal(err)
			}
			after, err := obs.Scrape(opsAddr)
			if err != nil {
				t.Fatal(err)
			}
			delta := obs.Delta(before, after)
			if fetched == 0 {
				t.Fatal("no query returned raw ids; the filter never fetched")
			}
			if got := delta[fmt.Sprintf("rsse_server_leakage_rawid_fetches_total{index=%q}", name)]; got != float64(fetched) {
				t.Errorf("server counted %v raw-id fetches, client fetched %d ids", got, fetched)
			}
			frames, ok := after[`rsse_requests_total{op="fetch_batch"}`]
			if !ok {
				t.Fatal(`scrape lacks rsse_requests_total{op="fetch_batch"}`)
			}
			if got := delta[`rsse_requests_total{op="fetch_batch"}`]; got != float64(queries) {
				t.Errorf("fetch_batch frames = %v (total %v), want one per query with raw ids (%d)", got, frames, queries)
			}
			if got := delta[`rsse_requests_total{op="fetch"}`]; got != 0 {
				t.Errorf("%v single-id fetch frames; the filter must batch", got)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			if err := <-serveDone; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestObservabilityEndToEnd runs the full ops story in-process: a query
// server with an ops endpoint beside it, client traffic, and the
// scrape-delta cross-check the load harness relies on — the server's
// own leakage accounting must agree exactly with the client-observed
// query stats, and /readyz must flip to 503 when draining begins.
func TestObservabilityEndToEnd(t *testing.T) {
	client, index, _ := remoteTestData(t, rsse.LogarithmicBRC, 77)
	reg := rsse.NewRegistry()
	const name = "obs-e2e"
	if err := reg.Register(name, index); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rsse.NewServer(reg)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	ready := obs.NewReadiness()
	opsAddr, stopOps, err := obs.Serve("127.0.0.1:0", obs.Default, ready)
	if err != nil {
		t.Fatal(err)
	}
	defer stopOps()

	readyzStatus := func() int {
		resp, err := http.Get(fmt.Sprintf("http://%s/readyz", opsAddr))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := readyzStatus(); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", got)
	}
	ready.SetReady(true)
	if got := readyzStatus(); got != http.StatusOK {
		t.Errorf("/readyz while serving = %d, want 200", got)
	}

	before, err := obs.Scrape(opsAddr)
	if err != nil {
		t.Fatal(err)
	}

	remote, err := rsse.DialIndex("tcp", l.Addr().String(), name)
	if err != nil {
		t.Fatal(err)
	}
	var wantQueries, wantTokens, wantItems uint64
	for i := 0; i < 16; i++ {
		lo := uint64(i * 60)
		res, err := client.QueryRemote(remote, rsse.Range{Lo: lo, Hi: lo + 50})
		if err != nil {
			t.Fatal(err)
		}
		wantQueries++
		wantTokens += uint64(res.Stats.Tokens)
		wantItems += uint64(res.Stats.ResponseItems)
	}
	if err := remote.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := obs.Scrape(opsAddr)
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Delta(before, after)

	// The server's leakage accounting must agree with the client's own
	// query stats — same protocol messages, counted from the two ends.
	series := func(family string) float64 {
		return delta[fmt.Sprintf("%s{index=%q}", family, name)]
	}
	if got := series("rsse_index_queries_total"); got != float64(wantQueries) {
		t.Errorf("server queries = %v, client issued %d", got, wantQueries)
	}
	if got := series("rsse_server_leakage_tokens_total"); got != float64(wantTokens) {
		t.Errorf("server leakage tokens = %v, client sent %d", got, wantTokens)
	}
	if got := series("rsse_server_leakage_response_items_total"); got != float64(wantItems) {
		t.Errorf("server leakage response items = %v, client saw %d", got, wantItems)
	}
	if got := delta[`rsse_requests_total{op="search"}`]; got < float64(wantQueries) {
		t.Errorf("rsse_requests_total{op=search} delta = %v, want >= %d", got, wantQueries)
	}

	// The stag cache's counters are exported beside the transport's.
	for _, fam := range []string{"rsse_stag_cache_hits_total", "rsse_stag_cache_misses_total"} {
		if _, ok := after[fam]; !ok {
			t.Errorf("scrape lacks %s", fam)
		}
	}
	if hits, misses := delta["rsse_stag_cache_hits_total"], delta["rsse_stag_cache_misses_total"]; hits+misses == 0 {
		t.Error("stag cache counters did not move under search traffic")
	}

	// Graceful shutdown: readiness flips first, then the drain.
	ready.SetReady(false)
	if got := readyzStatus(); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}
