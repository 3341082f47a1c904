package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand"

	"rsse/internal/core"
	"rsse/internal/dataset"
	"rsse/internal/workload"
)

// workloadDef is one traffic mix: the data the server is given, what it
// serves, and the op stream the load slots send. BENCHMARK.json carries
// a one-line summary of each; README.md in this directory records why
// each was chosen and which layers it exercises and bypasses.
type workloadDef struct {
	name   string
	bits   uint8
	tuples int
	data   dataset.Distribution
	// kinds lists the schemes served, one index each; empty for the
	// writable store.
	kinds []core.Kind
	// dynamic serves a durable Logarithmic-BRC Dynamic instead, preloaded
	// with the tuples; the owner flushes it every flushEvery writes.
	dynamic    bool
	step       int
	flushEvery uint64
	// spec is the op stream: range centres, widths, batch and write mix,
	// connections × in-flight. Phases come from the run, not the spec.
	spec workload.Spec
	// pacedQPS is the fixed open-loop rate of the paced phase, a quarter
	// to a third of the steady closed-loop rate on the reference box, low
	// enough that the paced tail measures the system rather than queues
	// behind the generator's slots. It stays fixed across every
	// comparison.
	pacedQPS float64
	// steadyOps, when set, makes each steady phase a fixed op count
	// instead of a fixed time; see the updates workload.
	steadyOps int
}

// practical are the schemes the schemes workload serves: every scheme
// but Quadratic, whose index grows as m² per tuple.
var practical = []core.Kind{
	core.ConstantBRC, core.ConstantURC,
	core.LogarithmicBRC, core.LogarithmicURC,
	core.LogarithmicSRC, core.LogarithmicSRCi,
}

// maxSchemes bounds the per-scheme arrays.
const maxSchemes = 6

var workloads = []*workloadDef{
	{
		name: "uniform", bits: 20, tuples: 20000,
		data:  dataset.Distribution{Family: dataset.FamilyUniform},
		kinds: []core.Kind{core.LogarithmicBRC},
		spec: workload.Spec{
			Keys:        dataset.Distribution{Family: dataset.FamilyUniform},
			Sizes:       workload.SizeDist{Dist: "uniform", Min: 1, Max: 4096},
			Connections: 2, InFlight: 4,
		},
		pacedQPS: 2500,
	},
	{
		name: "zipf-batch", bits: 20, tuples: 20000,
		data:  dataset.Distribution{Family: dataset.FamilyZipf, Distinct: 1024, S: 1.2},
		kinds: []core.Kind{core.LogarithmicBRC},
		spec: workload.Spec{
			Keys:          dataset.Distribution{Family: dataset.FamilyZipf, Distinct: 1024, S: 1.2},
			Sizes:         workload.SizeDist{Dist: "uniform", Min: 1, Max: 8},
			BatchFraction: 1, BatchSize: 16,
			Connections: 2, InFlight: 16,
		},
		pacedQPS: 1500,
	},
	{
		name: "schemes", bits: 16, tuples: 4000,
		data:  dataset.Distribution{Family: dataset.FamilyUniform},
		kinds: practical,
		spec: workload.Spec{
			Keys:        dataset.Distribution{Family: dataset.FamilyUniform},
			Sizes:       workload.SizeDist{Dist: "uniform", Min: 1, Max: 1024},
			Connections: 2, InFlight: 3,
		},
		pacedQPS: 300,
	},
	{
		name: "updates", bits: 16, tuples: 10000,
		data:    dataset.Distribution{Family: dataset.FamilyUniform},
		dynamic: true, step: 4, flushEvery: 512,
		spec: workload.Spec{
			Keys:          dataset.Distribution{Family: dataset.FamilyUniform},
			Sizes:         workload.SizeDist{Dist: "uniform", Min: 1, Max: 256},
			WriteFraction: 0.2,
			Connections:   2, InFlight: 2,
		},
		pacedQPS: 600,
		// Flushes fall every 512 writes and every fourth one merges level
		// 0, so a phase cut by time would hold a varying number of them.
		// Fixed op counts instead put about the same events in every
		// phase on every seed.
		steadyOps: 37200,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// opSpec returns the workload's op stream for a seed, with one phase
// that only satisfies validation: the runner drives phases itself.
func (w *workloadDef) opSpec(seed int64) *workload.Spec {
	s := w.spec
	s.Name = w.name
	s.Seed = seed
	s.Phases = []workload.Phase{{Name: "steady", DurationMS: 1}}
	return &s
}

// inputs derives everything the seed decides: the tuples and one master
// key per served scheme. Ids are moved into the base id space so they
// never collide with the write stream's.
func (w *workloadDef) inputs(seed int64) ([]core.Tuple, [][]byte, error) {
	tuples, err := dataset.FromDistribution(w.tuples, w.bits, w.data, seed^0x5eed_da7a)
	if err != nil {
		return nil, nil, err
	}
	retagBase(tuples)
	keys := make([][]byte, len(w.kinds))
	for i, k := range w.kinds {
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], uint64(seed))
		binary.BigEndian.PutUint64(b[8:], uint64(k))
		sum := sha256.Sum256(append([]byte("perfbench master key"), b[:]...))
		keys[i] = sum[:]
	}
	return tuples, keys, nil
}

// buildRand is the owner's build-time shuffle source for one scheme.
func buildRand(seed int64, k core.Kind) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed*31 + int64(k)))
}

// indexName is the name a scheme's index is served under.
func indexName(k core.Kind) string { return k.String() }
