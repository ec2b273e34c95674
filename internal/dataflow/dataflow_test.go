package dataflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dfg/internal/interp"
)

// arbitrary produces a random lattice value from a seed.
func arbitrary(rng *rand.Rand) ConstVal {
	switch rng.Intn(4) {
	case 0:
		return Bottom
	case 1:
		return TopVal
	case 2:
		return ConstOf(interp.IntVal(int64(rng.Intn(5))))
	default:
		return ConstOf(interp.BoolVal(rng.Intn(2) == 0))
	}
}

func TestJoinLatticeLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Commutativity, associativity, idempotence.
	comm := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := arbitrary(rng), arbitrary(rng)
		return a.Join(b) == b.Join(a)
	}
	assoc := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := arbitrary(rng), arbitrary(rng), arbitrary(rng)
		return a.Join(b).Join(c) == a.Join(b.Join(c))
	}
	idem := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := arbitrary(rng)
		return a.Join(a) == a
	}
	for name, f := range map[string]func(int64) bool{"comm": comm, "assoc": assoc, "idem": idem} {
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestJoinIdentityAndAbsorption(t *testing.T) {
	vals := []ConstVal{
		Bottom, TopVal,
		ConstOf(interp.IntVal(3)), ConstOf(interp.IntVal(4)),
		ConstOf(interp.BoolVal(true)),
	}
	for _, v := range vals {
		if v.Join(Bottom) != v {
			t.Errorf("⊥ not identity for %s", v)
		}
		if v.Join(TopVal) != TopVal {
			t.Errorf("⊤ not absorbing for %s", v)
		}
	}
	// Distinct constants join to top, even across types.
	if ConstOf(interp.IntVal(3)).Join(ConstOf(interp.IntVal(4))) != TopVal {
		t.Error("3 ⊔ 4 != ⊤")
	}
	if ConstOf(interp.IntVal(1)).Join(ConstOf(interp.BoolVal(true))) != TopVal {
		t.Error("1 ⊔ true != ⊤")
	}
}

func TestLeqConsistentWithJoin(t *testing.T) {
	// a ⊑ b  ⟺  a ⊔ b == b
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := arbitrary(rng), arbitrary(rng)
		return a.Leq(b) == (a.Join(b) == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIsTrueFalse(t *testing.T) {
	if !ConstOf(interp.BoolVal(true)).IsTrue() || ConstOf(interp.BoolVal(true)).IsFalse() {
		t.Error("true misclassified")
	}
	if !ConstOf(interp.BoolVal(false)).IsFalse() || ConstOf(interp.BoolVal(false)).IsTrue() {
		t.Error("false misclassified")
	}
	if TopVal.IsTrue() || TopVal.IsFalse() || Bottom.IsTrue() || Bottom.IsFalse() {
		t.Error("extremes misclassified")
	}
	if ConstOf(interp.IntVal(1)).IsTrue() {
		t.Error("int 1 is not boolean true")
	}
}

func TestConstValString(t *testing.T) {
	cases := map[string]ConstVal{
		"⊥":    Bottom,
		"⊤":    TopVal,
		"42":   ConstOf(interp.IntVal(42)),
		"true": ConstOf(interp.BoolVal(true)),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Joins, c.Transfers, c.Visits = 1, 2, 3
	if c.Total() != 6 {
		t.Errorf("Total = %d", c.Total())
	}
	var d Counter
	d.Add(c)
	d.Add(c)
	if d.Total() != 12 {
		t.Errorf("after Add: %d", d.Total())
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}
