package data

import "math/rand"

// NewRand returns a generator whose every draw equals the draw of
// rand.New(rand.NewSource(seed)), without that source's seeding loop:
// 1,841 Lehmer steps filling a 607-word register, where a corpus sample
// or a straggler roll needs a few dozen draws. Draws past rngTap come
// from a real rand.NewSource advanced past the draws already served.
//
// The legacy source (Mitchell and Reeds, math/rand/rng.go) seeds
// x₀ = seed mod (2³¹−1) (moved into [1, 2³¹−2]; 0 becomes 89482311),
// steps xₙ₊₁ = 48271·xₙ mod (2³¹−1), discards x₁..x₂₀ and sets
//
//	vec[i] = x₃ᵢ₊₂₁<<40 ^ x₃ᵢ₊₂₂<<20 ^ x₃ᵢ₊₂₃ ^ cooked[i],  i < 607,
//
// where xₙ = x₀·48271ⁿ mod (2³¹−1) and cooked is a fixed table. Draw k
// (from 1) adds vec[(334−k) mod 607] and vec[(607−k) mod 607] and
// stores the sum at the first index. For k ≤ 273 neither index has been
// written yet, so draw k is vec[334−k] + vec[607−k] of the freshly
// seeded register: six multiplications mod 2³¹−1 against a power table.
func NewRand(seed int64) *rand.Rand {
	s := new(seededSource)
	s.Seed(seed)
	return rand.New(s)
}

const (
	rngLen   = 607 // the legacy source's register length
	rngTap   = 273 // its tap distance: the draws the closed form serves
	int32max = 1<<31 - 1
)

var (
	// seedPow[n] is 48271ⁿ mod (2³¹−1), up to the last seeding step.
	seedPow [3*rngLen + 21]uint64
	// rngCooked is math/rand's unexported cooked table, recovered in init.
	rngCooked [rngLen]int64
)

// init builds seedPow and recovers rngCooked from the first 607 draws
// d[1..607] of rand.NewSource(1), whose register v = raw ^ cooked is
// unknown. Draw k stores d[k] at index (334−k) mod 607, and for
// 274 ≤ k ≤ 607 its second operand is the index draw k−273 stored to, so
//
//	v[(941−k) mod 607] = d[k] − d[k−273],  274 ≤ k ≤ 607,
//
// which gives v[0..60] (k ≤ 334) and v[334..606] (k ≥ 335); then
//
//	v[334−k] = d[k] − v[607−k],  1 ≤ k ≤ 273,
//
// gives v[61..333] from the second range. XOR with seed 1's raw words
// leaves cooked.
func init() {
	seedPow[0] = 1
	for n := 1; n < len(seedPow); n++ {
		seedPow[n] = seedPow[n-1] * 48271 % int32max
	}
	src := rand.NewSource(1).(rand.Source64)
	var d [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		d[k] = int64(src.Uint64())
	}
	v := &rngCooked
	for k := rngTap + 1; k <= rngLen; k++ {
		v[(rngLen+rngLen-rngTap-k)%rngLen] = d[k] - d[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = d[k] - v[rngLen-k]
	}
	one := seededSource{x: 1}
	for i := range v {
		v[i] ^= one.raw(i)
	}
}

// seededSource is the rand.Source64 behind NewRand.
type seededSource struct {
	seed int64         // as given, for the fallback
	x    uint64        // x₀
	n    int           // draws served
	tail rand.Source64 // serves draws past rngTap
}

// Seed implements rand.Source.
func (s *seededSource) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	*s = seededSource{seed: seed, x: uint64(x)}
}

// raw returns register word i before cooking.
func (s *seededSource) raw(i int) int64 {
	p := seedPow[3*i+21 : 3*i+24]
	return int64(s.x*p[0]%int32max)<<40 ^ int64(s.x*p[1]%int32max)<<20 ^ int64(s.x*p[2]%int32max)
}

// Uint64 implements rand.Source64.
func (s *seededSource) Uint64() uint64 {
	s.n++
	if s.n <= rngTap {
		a, b := rngLen-rngTap-s.n, rngLen-s.n
		return uint64((s.raw(a) ^ rngCooked[a]) + (s.raw(b) ^ rngCooked[b]))
	}
	if s.tail == nil {
		s.tail = rand.NewSource(s.seed).(rand.Source64)
		for range s.n - 1 {
			s.tail.Uint64()
		}
	}
	return s.tail.Uint64()
}

// Int63 implements rand.Source.
func (s *seededSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
