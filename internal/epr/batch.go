package epr

import (
	"dfg/internal/anticip"
	"dfg/internal/bitset"
	"dfg/internal/cfg"
	"dfg/internal/dataflow"
	"dfg/internal/dfg"
	"dfg/internal/lang/ast"
)

// Batch holds the batched dataflow solutions for a whole candidate family:
// one fixpoint per problem instead of one per expression, with candidate k
// occupying bit k of every lattice word. Analysis(k) projects out the
// per-candidate view the rest of the engine consumes.
type Batch struct {
	G      *cfg.Graph
	Family *anticip.Family

	// Per-edge solutions, one row per EdgeID, one bit per candidate.
	ANT, PAN *bitset.Matrix
	AV, PAV  *bitset.Matrix

	Cost dataflow.Counter

	// walk, when set (the transformation loop sets it), is the path-walk
	// scratch the batch's analyses share for Redundant, which is then not
	// safe to call concurrently on analyses of one batch.
	walk *savingWalk
}

// AnalyzeBatch solves ANT/PAN/AV/PAV for all exprs at once with the given
// driver. d is the prebuilt DFG for DriverDFG (built on demand when nil,
// ignored by DriverCFG).
func AnalyzeBatch(g *cfg.Graph, exprs []ast.Expr, driver Driver, d *dfg.Graph) (*Batch, error) {
	return analyzeFamily(anticip.NewFamily(g, exprs), driver, d, nil)
}

// analyzeFamily is AnalyzeBatch over a prebuilt (possibly incrementally
// updated) family. sc, when non-nil, supplies reusable solver buffers —
// ApplyPlaced threads one scratch through the many re-solves of a round.
func analyzeFamily(f *anticip.Family, driver Driver, d *dfg.Graph, sc *anticip.Scratch) (*Batch, error) {
	return analyzeFamilyPar(f, driver, d, sc, nil, 1)
}

// analyzeFamilyPar is analyzeFamily with optional intra-solve parallelism:
// at workers > 1 (and a family wide enough to split) every fixpoint
// partitions its candidate words across workers goroutines, drawing
// per-worker buffers from pool instead of sc.
func analyzeFamilyPar(f *anticip.Family, driver Driver, d *dfg.Graph, sc *anticip.Scratch, pool *anticip.ScratchPool, workers int) (*Batch, error) {
	b := &Batch{G: f.G, Family: f}
	par := workers > 1 && f.Words >= anticip.MinParallelWords
	switch driver {
	case DriverDFG:
		if d == nil {
			var err error
			d, err = dfg.Build(f.G)
			if err != nil {
				return nil, err
			}
		}
		opsOf := d.OpsByVar()
		if par {
			b.ANT, b.PAN = f.SolveDFGOpsParallel(d, opsOf, pool, workers, &b.Cost)
			b.AV, b.PAV = dfgAVPAVBatchParallel(f, d, opsOf, pool, workers, &b.Cost)
		} else {
			b.ANT, b.PAN = f.SolveDFGOps(d, opsOf, sc, &b.Cost)
			b.AV, b.PAV = dfgAVPAVBatch(f, d, opsOf, sc, &b.Cost)
		}
	default:
		if par {
			b.ANT, b.PAN = f.SolveCFGParallel(workers, &b.Cost)
			b.AV = availabilityBatchParallel(f, true, workers, &b.Cost)
			b.PAV = availabilityBatchParallel(f, false, workers, &b.Cost)
		} else {
			b.ANT, b.PAN = f.SolveCFG(&b.Cost)
			b.AV = availabilityBatch(f, true, &b.Cost)
			b.PAV = availabilityBatch(f, false, &b.Cost)
		}
	}
	return b, nil
}

// Len returns the number of candidates in the batch.
func (b *Batch) Len() int { return len(b.Family.Exprs) }

// Words returns the lattice width in machine words.
func (b *Batch) Words() int { return b.Family.Words }

// Analysis extracts candidate k as a standalone per-expression analysis,
// including its INSERT/DELETE placement.
func (b *Batch) Analysis(k int) *Analysis {
	a := &Analysis{
		G:      b.G,
		Expr:   b.Family.Exprs[k],
		ANT:    b.ANT.Column(k),
		PAN:    b.PAN.Column(k),
		AV:     b.AV.Column(k),
		PAV:    b.PAV.Column(k),
		fam:    b.Family,
		famIdx: k,
		walk:   b.walk,
	}
	a.placeAndDelete()
	return a
}
