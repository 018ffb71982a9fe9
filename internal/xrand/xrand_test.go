package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestKeyedIndependence(t *testing.T) {
	a := NewKeyed(1, 10)
	b := NewKeyed(1, 11)
	equal := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("keyed streams shared %d of 64 values", equal)
	}
	// Key order matters.
	c := NewKeyed(1, 10, 20).Uint64()
	d := NewKeyed(1, 20, 10).Uint64()
	if c == d {
		t.Fatal("key order did not change the stream")
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("alpha") != HashString("alpha") {
		t.Fatal("HashString not deterministic")
	}
	if HashString("alpha") == HashString("beta") {
		t.Fatal("HashString collides on trivially distinct inputs")
	}
	if HashString("") == 0 {
		t.Fatal("empty string should hash to FNV offset, not 0")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(9)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("Normal mean = %v, want 3±0.03", mean)
	}
	if math.Abs(std-2) > 0.03 {
		t.Errorf("Normal std = %v, want 2±0.03", std)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(13)
	for i := 0; i < 10000; i++ {
		v := s.TruncNormal(0, 1, -0.5, 0.5)
		if v < -0.5 || v > 0.5 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
	// Pathological bounds far from the mean still terminate and clamp.
	v := s.TruncNormal(0, 0.001, 5, 6)
	if v < 5 || v > 6 {
		t.Fatalf("TruncNormal fallback clamp failed: %v", v)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(15)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of [2,5): %v", v)
		}
	}
}

func TestIntn(t *testing.T) {
	s := New(17)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("Intn(10) never produced %d in 1000 draws", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestZeroValueStreamUsable(t *testing.T) {
	var s Stream
	_ = s.Uint64()
	_ = s.Float64()
}
