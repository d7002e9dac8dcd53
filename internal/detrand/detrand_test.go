package detrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	f := func(a, b, c uint64) bool {
		return Hash64(a, b, c) == Hash64(a, b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHash64OrderSensitive(t *testing.T) {
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Error("Hash64 should depend on argument order")
	}
	if Hash64(1) == Hash64(1, 0) {
		t.Error("Hash64 should depend on arity")
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(a, b uint64) bool {
		v := UnitFloat(a, b)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Distribution(t *testing.T) {
	// Mean of many hashed uniforms should be close to 0.5.
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += UnitFloat(uint64(i), 42)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of hashed uniforms = %v, want ~0.5", mean)
	}
}

func TestIntn(t *testing.T) {
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		v := Intn(10, uint64(i), 7)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if c < 3500 || c > 6500 {
			t.Errorf("digit %d appeared %d of 50000 times; poor uniformity", d, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	Intn(0, 1)
}

func TestNormMoments(t *testing.T) {
	var sum, sumSq float64
	n := 100000
	for i := 0; i < n; i++ {
		v := Norm(uint64(i), 99)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestExpMoments(t *testing.T) {
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		v := Exp(uint64(i), 5)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %v, want ~1", mean)
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits on average.
	var totalFlips int
	trials := 1000
	for i := 0; i < trials; i++ {
		h1 := Hash64(uint64(i))
		h2 := Hash64(uint64(i) ^ 1)
		totalFlips += popcount(h1 ^ h2)
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average = %.1f bits, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// refHash64 is Hash64 as it was written before it became a fold over
// State, kept here as the reference the fold must reproduce bit for bit:
// every world, census and checksum in the repository hangs off these bits.
func refHash64(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h = mix(h)
	}
	return h
}

// refExp is the pre-State Exp over refHash64.
func refExp(vs ...uint64) float64 {
	u := Float64(refHash64(vs...))
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}

// TestStateMatchesHash64 pins the prefix property the probe path is built
// on: a tuple may be split anywhere into a Begin prefix (arity 0 to 6) and
// With steps, and the state - and the Unit, Exp and Intn variates drawn
// from it - is the very bits of Hash64, UnitFloat, Exp and Intn over the
// whole tuple, which in turn are the bits of the pre-State implementation.
func TestStateMatchesHash64(t *testing.T) {
	f := func(a [6]uint64, arity uint8, b, c uint64, n uint16) bool {
		prefix := a[:int(arity)%7]
		whole := append(append([]uint64{}, prefix...), b, c)
		st := Begin(prefix...).With(b).With(c)
		return st == State(Hash64(whole...)) &&
			Hash64(whole...) == refHash64(whole...) &&
			Hash64(prefix...) == refHash64(prefix...) &&
			math.Float64bits(st.Unit()) == math.Float64bits(UnitFloat(whole...)) &&
			math.Float64bits(st.Unit()) == math.Float64bits(Float64(refHash64(whole...))) &&
			math.Float64bits(st.Exp()) == math.Float64bits(Exp(whole...)) &&
			math.Float64bits(st.Exp()) == math.Float64bits(refExp(whole...)) &&
			st.Intn(int(n)+1) == Intn(int(n)+1, whole...) &&
			st.Intn(int(n)+1) == int(refHash64(whole...)%(uint64(n)+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	if Begin() != State(Hash64()) || Hash64() != refHash64() {
		t.Error("the empty tuple's state is not Hash64()")
	}
}

var sinkU64 uint64

func BenchmarkHash64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkU64 = Hash64(uint64(i), 123, 456)
	}
}

// BenchmarkStateWith is one With step from a kept prefix: what a draw costs
// per value once the constant head of its tuple is hoisted.
func BenchmarkStateWith(b *testing.B) {
	prefix := Begin(123, 456)
	for i := 0; i < b.N; i++ {
		sinkU64 = uint64(prefix.With(uint64(i)))
	}
}
