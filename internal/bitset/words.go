package bitset

import "math/bits"

// Word-vector support for batched bit-vector dataflow: a lattice value is a
// []uint64 of fixed width ("stride") holding one bit per problem instance
// (candidate expression), and a Matrix is a dense table of such values
// indexed by an integer domain (EdgeID, port index, ...). The solvers in
// internal/anticip and internal/epr run all candidates of a round through
// one fixpoint by replacing their per-edge booleans with these rows.

// WordsFor returns the number of uint64 words needed to hold n bits.
func WordsFor(n int) int { return (n + 63) / 64 }

// Matrix is a dense rows×bits bit table stored as one flat []uint64 with a
// fixed per-row stride.
type Matrix struct {
	Stride int // words per row
	Bits   int // meaningful bits per row
	W      []uint64
}

// NewMatrix returns a zeroed matrix with the given number of rows, each
// wide enough for bits bits.
func NewMatrix(rows, bitCount int) *Matrix {
	s := WordsFor(bitCount)
	return &Matrix{Stride: s, Bits: bitCount, W: make([]uint64, rows*s)}
}

// Row returns row i as a mutable word slice (length Stride).
func (m *Matrix) Row(i int) []uint64 {
	return m.W[i*m.Stride : (i+1)*m.Stride : (i+1)*m.Stride]
}

// Bit reports bit k of row i.
func (m *Matrix) Bit(i, k int) bool {
	return m.W[i*m.Stride+k>>6]&(1<<(uint(k)&63)) != 0
}

// SetBit sets bit k of row i.
func (m *Matrix) SetBit(i, k int) {
	m.W[i*m.Stride+k>>6] |= 1 << (uint(k) & 63)
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int {
	if m.Stride == 0 {
		return 0
	}
	return len(m.W) / m.Stride
}

// EnsureRows grows the matrix to at least rows rows (new rows zeroed). The
// incremental solvers use it when the CFG gains nodes mid-round.
func (m *Matrix) EnsureRows(rows int) {
	if need := rows * m.Stride; need > len(m.W) {
		m.W = append(m.W, make([]uint64, need-len(m.W))...)
	}
}

// Reshape resizes m to rows×bitCount, reusing the backing array when it is
// large enough (growing with headroom when it is not). Row contents are
// unspecified afterwards; callers must initialize every row they read.
func (m *Matrix) Reshape(rows, bitCount int) {
	s := WordsFor(bitCount)
	need := rows * s
	if cap(m.W) < need {
		m.W = make([]uint64, need, need+need/2)
	}
	m.W = m.W[:need]
	m.Stride = s
	m.Bits = bitCount
}

// Column extracts bit k of every row into a []bool — the per-candidate
// boolean view the unbatched analyses expose.
func (m *Matrix) Column(k int) []bool {
	out := make([]bool, m.Rows())
	w, mask := k>>6, uint64(1)<<(uint(k)&63)
	for i := range out {
		out[i] = m.W[i*m.Stride+w]&mask != 0
	}
	return out
}

// The word-slice kernels below operate on equal-length rows. They are the
// entire inner loop of the batched solvers, so they stay free of bounds
// re-checks by reslicing each source to the destination's length, which
// also admits zero-width rows.

// WordsOr sets dst |= src.
func WordsOr(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] |= src[i]
	}
}

// WordsAnd sets dst &= src.
func WordsAnd(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// WordsAndNot sets dst &^= src.
func WordsAndNot(dst, src []uint64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] &^= src[i]
	}
}

// WordsAndOr sets dst &= a | b (the masked-combine kernel of the batched
// per-variable projections: dst &= projection ∨ ¬mask).
func WordsAndOr(dst, a, b []uint64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] &= a[i] | b[i]
	}
}

// WordsEqual reports whether a and b hold the same bits.
func WordsEqual(a, b []uint64) bool {
	b = b[:len(a)]
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WordsZero clears dst.
func WordsZero(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

// WordsFill sets the first bits bits of dst and clears the rest.
func WordsFill(dst []uint64, bitCount int) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if tail := bitCount & 63; tail != 0 && len(dst) > 0 {
		dst[len(dst)-1] = 1<<uint(tail) - 1
	}
}

// WordsAny reports whether any bit of a is set.
func WordsAny(a []uint64) bool {
	for _, w := range a {
		if w != 0 {
			return true
		}
	}
	return false
}

// WordsCount returns the number of set bits in a.
func WordsCount(a []uint64) int {
	n := 0
	for _, w := range a {
		n += bits.OnesCount64(w)
	}
	return n
}

// WordsBit reports bit k of a.
func WordsBit(a []uint64, k int) bool {
	return a[k>>6]&(1<<(uint(k)&63)) != 0
}
