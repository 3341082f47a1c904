// Command perfbench is the repository's benchmark. It runs one named
// workload against an rsse server in its own process on loopback, checks
// every answer against a plaintext oracle, and prints its metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also takes spans at the layer boundaries and reports per-layer
// metrics instead. Build and run it from the repository root with
// perfbench/run.sh; see README.md in this directory for the workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		os.Exit(probeMain())
	}
	os.Exit(benchMain(os.Args[1:]))
}

// result is the final JSON line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: uniform, zipf-batch, schemes or updates")
	seed := fs.Int64("seed", 1, "seed of the generated data and op streams")
	seconds := fs.Int("seconds", 15, "measured seconds: four fifths steady, one fifth paced")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	base := filepath.Join(*root, ".bench_build", "perfbench")
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b, err := newBench(w, *seed, dir, *trace == 1, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rr, err := b.run(ctx, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: rr.wrongAnswers() == 0}
	res.Attempted, res.Failed = rr.totals()
	if *trace == 1 {
		res.Metrics = perLayer(b, rr)
		spans := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, *seed))
		if err := writeSpans(spans, b.recorders()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "spans written to", spans)
	} else {
		res.Metrics = endToEnd(rr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
