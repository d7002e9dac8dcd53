// Package detrand provides deterministic pseudo-randomness derived from
// hashing. The network simulator needs quantities that are random across
// (vantage point, target) pairs but stable across runs and probe
// repetitions — e.g. the BGP path stretch between a given VP and a given
// replica must be the same on every probe, without storing a matrix of
// O(VPs x targets) values. Hash-derived randomness gives exactly that:
// a pure function of the identifying tuple and a world seed.
package detrand

import "math"

// State is a partially mixed hash: the fold of a tuple prefix. Callers that
// draw many values sharing a prefix - every probe of one vantage point
// starts with (seed, vp) - keep the State of the prefix and mix in only the
// suffix, and get the very bits Hash64 would produce over the whole tuple:
// Begin(a, b).With(c) == State(Hash64(a, b, c)).
type State uint64

// Begin returns the state of the given tuple prefix.
func Begin(vs ...uint64) State {
	s := State(0x9E3779B97F4A7C15)
	for _, v := range vs {
		s = s.With(v)
	}
	return s
}

// With mixes one more value into the state: one splitmix64 step.
func (s State) With(v uint64) State {
	h := uint64(s)
	h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	return State(mix(h))
}

// Unit maps the state to [0, 1).
func (s State) Unit() float64 { return Float64(uint64(s)) }

// Exp maps the state to an exponential variate with mean 1.
func (s State) Exp() float64 {
	u := s.Unit()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}

// Hash64 mixes an arbitrary tuple of values into a single 64-bit hash using
// splitmix64 steps. It is deterministic, fast and well distributed; it is
// not cryptographic.
func Hash64(vs ...uint64) uint64 {
	return uint64(Begin(vs...))
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 maps a hash to [0, 1).
func Float64(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// UnitFloat is shorthand for Float64(Hash64(vs...)).
func UnitFloat(vs ...uint64) float64 {
	return Begin(vs...).Unit()
}

// Intn maps a hash tuple to [0, n). It panics if n <= 0.
func Intn(n int, vs ...uint64) int {
	return Begin(vs...).Intn(n)
}

// Intn maps the state to [0, n). It panics if n <= 0.
func (s State) Intn(n int) int {
	if n <= 0 {
		panic("detrand: Intn with non-positive n")
	}
	return int(uint64(s) % uint64(n))
}

// Norm maps a hash tuple to an approximately standard normal variate using
// the Box-Muller transform on two derived uniforms.
func Norm(vs ...uint64) float64 {
	h := Hash64(vs...)
	u1 := Float64(h)
	u2 := Float64(mix(h + 1))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exp maps a hash tuple to an exponential variate with mean 1.
func Exp(vs ...uint64) float64 {
	return Begin(vs...).Exp()
}
