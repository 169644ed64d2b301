package relation

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a subset of the universe {0, ..., 63}, represented as a bitmask.
// The zero value is the empty set.
type Set uint64

// UniverseSet returns the set {0, ..., n-1}.
func UniverseSet(n int) Set {
	checkUniverse(n)
	if n == 64 {
		return Set(^uint64(0))
	}
	return Set((uint64(1) << uint(n)) - 1)
}

// SetOf returns the set containing exactly the given atoms.
func SetOf(atoms ...int) Set {
	var s Set
	for _, a := range atoms {
		s = s.Add(a)
	}
	return s
}

// Add returns s ∪ {i}.
func (s Set) Add(i int) Set {
	if i < 0 || i >= MaxUniverse {
		panic(fmt.Sprintf("relation: atom %d out of range [0,%d)", i, MaxUniverse))
	}
	return s | Set(uint64(1)<<uint(i))
}

// Remove returns s \ {i}.
func (s Set) Remove(i int) Set {
	if i < 0 || i >= MaxUniverse {
		panic(fmt.Sprintf("relation: atom %d out of range [0,%d)", i, MaxUniverse))
	}
	return s &^ Set(uint64(1)<<uint(i))
}

// Has reports whether i is in the set.
func (s Set) Has(i int) bool {
	return i >= 0 && i < MaxUniverse && s&Set(uint64(1)<<uint(i)) != 0
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// IsEmpty reports whether the set is empty.
func (s Set) IsEmpty() bool { return s == 0 }

// Size returns the number of atoms in the set.
func (s Set) Size() int { return bits.OnesCount64(uint64(s)) }

// Members returns the atoms in the set in increasing order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Size())
	m := uint64(s)
	for m != 0 {
		out = append(out, bits.TrailingZeros64(m))
		m &= m - 1
	}
	return out
}

// Cross returns the relation s -> t over a universe of n atoms: all pairs
// with source in s and target in t.
func Cross(n int, s, t Set) Rel {
	r := New(n)
	tm := uint64(t & UniverseSet(n))
	sm := uint64(s & UniverseSet(n))
	for sm != 0 {
		i := bits.TrailingZeros64(sm)
		sm &= sm - 1
		r.rows[i] = tm
	}
	return r
}

// IdentityOn returns the partial identity relation {(i,i) | i ∈ s} over a
// universe of n atoms.
func IdentityOn(n int, s Set) Rel {
	r := New(n)
	r.UnionIdentity(s & UniverseSet(n))
	return r
}

// String renders the set as "{1,3,5}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for idx, m := range s.Members() {
		if idx > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", m)
	}
	b.WriteByte('}')
	return b.String()
}
