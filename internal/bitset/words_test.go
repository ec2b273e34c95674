package bitset

import "testing"

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMatrixBits(t *testing.T) {
	m := NewMatrix(5, 70) // stride 2
	if m.Stride != 2 || m.Rows() != 5 {
		t.Fatalf("stride=%d rows=%d", m.Stride, m.Rows())
	}
	m.SetBit(3, 0)
	m.SetBit(3, 69)
	m.SetBit(4, 64)
	if !m.Bit(3, 0) || !m.Bit(3, 69) || !m.Bit(4, 64) {
		t.Fatal("set bits not readable")
	}
	if m.Bit(3, 1) || m.Bit(2, 0) || m.Bit(4, 65) {
		t.Fatal("unset bits read true")
	}
	col := m.Column(69)
	want := []bool{false, false, false, true, false}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("Column(69) = %v", col)
		}
	}
}

func TestMatrixEnsureRows(t *testing.T) {
	m := NewMatrix(2, 70)
	m.SetBit(1, 69)
	m.EnsureRows(5)
	if m.Rows() != 5 || !m.Bit(1, 69) || m.Bit(4, 0) {
		t.Fatalf("EnsureRows: rows=%d bit(1,69)=%t", m.Rows(), m.Bit(1, 69))
	}
	m.EnsureRows(3) // never shrinks
	if m.Rows() != 5 {
		t.Fatalf("EnsureRows shrank to %d", m.Rows())
	}
}

func TestWordKernels(t *testing.T) {
	a := []uint64{0b1100, 0b1}
	b := []uint64{0b1010, 0b10}

	dst := append([]uint64(nil), a...)
	WordsOr(dst, b)
	if dst[0] != 0b1110 || dst[1] != 0b11 {
		t.Fatalf("WordsOr = %b %b", dst[0], dst[1])
	}

	dst = append([]uint64(nil), a...)
	WordsAnd(dst, b)
	if dst[0] != 0b1000 || dst[1] != 0 {
		t.Fatalf("WordsAnd = %b %b", dst[0], dst[1])
	}

	dst = append([]uint64(nil), a...)
	WordsAndNot(dst, b)
	if dst[0] != 0b0100 || dst[1] != 0b1 {
		t.Fatalf("WordsAndNot = %b %b", dst[0], dst[1])
	}

	dst = []uint64{0b1111, 0b11}
	WordsAndOr(dst, a, b) // dst &= a | b
	if dst[0] != 0b1110 || dst[1] != 0b11 {
		t.Fatalf("WordsAndOr = %b %b", dst[0], dst[1])
	}

	if !WordsEqual(a, a) || WordsEqual(a, b) {
		t.Fatal("WordsEqual wrong")
	}
	if WordsAny([]uint64{0, 0}) || !WordsAny(a) {
		t.Fatal("WordsAny wrong")
	}
	if WordsCount(a) != 3 {
		t.Fatalf("WordsCount = %d", WordsCount(a))
	}
	if !WordsBit(a, 64) || WordsBit(a, 65) {
		t.Fatal("WordsBit wrong")
	}

	WordsZero(dst)
	if WordsAny(dst) {
		t.Fatal("WordsZero left bits")
	}

	fill := make([]uint64, 2)
	WordsFill(fill, 70)
	if fill[0] != ^uint64(0) || fill[1] != 1<<6-1 {
		t.Fatalf("WordsFill = %x %x", fill[0], fill[1])
	}
	WordsFill(fill, 128)
	if fill[1] != ^uint64(0) {
		t.Fatalf("WordsFill full tail = %x", fill[1])
	}
}
