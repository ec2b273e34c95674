package epr

import (
	"dfg/internal/anticip"
	"dfg/internal/bitset"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/parallel"
)

// Word-partitioned availability: the parallel counterparts of
// availabilityBatch and dfgAVPAVBatch, built on anticip.Family.Slice. The
// same argument as the anticip solvers applies — candidates are independent
// bit columns, the fixpoints are unique, and the projection walks are
// candidate-independent — so each word chunk solved in isolation reproduces
// its bits of the full solve exactly, at the price of repeating the graph
// walks once per chunk.

// availabilityBatchParallel is availabilityBatch with candidate words
// partitioned across up to workers goroutines.
func availabilityBatchParallel(f *anticip.Family, total bool, workers int, cost *dataflow.Counter) *bitset.Matrix {
	workers = parallel.Workers(workers)
	if workers <= 1 || f.Words < anticip.MinParallelWords {
		return availabilityBatch(f, total, cost)
	}
	av := bitset.NewMatrix(f.G.NumEdges(), len(f.Exprs))
	chunks := anticip.WordChunks(f.Words, workers)
	costs := make([]dataflow.Counter, len(chunks))
	parallel.Do(len(chunks), workers, func(w, i int) {
		c := chunks[i]
		av.PasteWordRange(availabilityBatch(f.Slice(c[0], c[1]), total, &costs[i]), c[0])
	})
	for _, c := range costs {
		cost.Add(c)
	}
	return av
}

// dfgAVPAVBatchParallel is dfgAVPAVBatch with candidate words partitioned
// across up to workers goroutines, each chunk on its own Scratch from pool.
// Unlike the serial solver, the results are freshly allocated, not views
// into a scratch arena.
func dfgAVPAVBatchParallel(f *anticip.Family, d *dfg.Graph, opsOf map[string][]dfg.OpID, pool *anticip.ScratchPool, workers int, cost *dataflow.Counter) (av, pav *bitset.Matrix) {
	workers = parallel.Workers(workers)
	if workers <= 1 || f.Words < anticip.MinParallelWords {
		return dfgAVPAVBatch(f, d, opsOf, pool.Get(0), cost)
	}
	n := len(f.Exprs)
	av = bitset.NewMatrix(f.G.NumEdges(), n)
	pav = bitset.NewMatrix(f.G.NumEdges(), n)
	if pool != nil {
		pool.Grow(workers)
	}
	chunks := anticip.WordChunks(f.Words, workers)
	costs := make([]dataflow.Counter, len(chunks))
	parallel.Do(len(chunks), workers, func(w, i int) {
		c := chunks[i]
		ca, cp := dfgAVPAVBatch(f.Slice(c[0], c[1]), d, opsOf, pool.Get(w), &costs[i])
		av.PasteWordRange(ca, c[0])
		pav.PasteWordRange(cp, c[0])
	})
	for _, c := range costs {
		cost.Add(c)
	}
	return av, pav
}
