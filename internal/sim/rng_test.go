package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64InRange(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(3 * Millisecond)
	if tm.Millis() != 3 {
		t.Fatalf("Millis = %v, want 3", tm.Millis())
	}
	if tm.Micros() != 3000 {
		t.Fatalf("Micros = %v, want 3000", tm.Micros())
	}
	if d := tm.Sub(Time(Millisecond)); d != 2*Millisecond {
		t.Fatalf("Sub = %v, want 2ms", d)
	}
	if got := (10 * Microsecond).Scale(2.5); got != 25*Microsecond {
		t.Fatalf("Scale = %v, want 25us", got)
	}
	if s := Time(1500).String(); s != "1.500us" {
		t.Fatalf("String = %q", s)
	}
	if s := Duration(2500).String(); s != "2.500us" {
		t.Fatalf("Duration String = %q", s)
	}
}
