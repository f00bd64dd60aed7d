// Package bitset provides a dense, flat bitset used as the visited-set and
// membership-test substrate of the hot graph paths. It replaces the
// map[int32]bool scratch sets the DBHT-side layers used before the
// flat-memory refactor: a Set is a single []uint64 allocation, clears in
// O(n/64) (or O(touched) via ClearList), and tests with one shift and mask —
// no hashing, no pointer chasing, no per-call allocation once pooled in a
// ws.Workspace.
package bitset

const (
	wordShift = 6
	wordMask  = 63
)

// Set is a fixed-capacity dense bitset over ids [0, Len()). The zero value
// is an empty set of capacity 0; use New or Reset to size it.
type Set struct {
	words []uint64
	n     int
}

// New returns a cleared bitset with capacity for ids [0, n).
func New(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

// Len returns the id capacity.
func (s *Set) Len() int { return s.n }

// Reset resizes the set to capacity n and clears every bit. The backing
// array is reused when large enough, so pooled sets reach steady state
// without reallocating.
func (s *Set) Reset(n int) {
	w := (n + wordMask) >> wordShift
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		clear(s.words)
	}
	s.n = n
}

// Set sets bit i.
func (s *Set) Set(i int32) { s.words[i>>wordShift] |= 1 << (uint(i) & wordMask) }

// Clear clears bit i.
func (s *Set) Clear(i int32) { s.words[i>>wordShift] &^= 1 << (uint(i) & wordMask) }

// Test reports whether bit i is set.
func (s *Set) Test(i int32) bool {
	return s.words[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0
}

// TestAndSet sets bit i and reports whether it was already set.
func (s *Set) TestAndSet(i int32) bool {
	w, b := i>>wordShift, uint64(1)<<(uint(i)&wordMask)
	old := s.words[w]&b != 0
	s.words[w] |= b
	return old
}

// ClearList clears exactly the listed bits — O(len(ids)) instead of
// O(n/64), the cheap way to undo a sparse marking pass on a large set.
func (s *Set) ClearList(ids []int32) {
	for _, i := range ids {
		s.words[i>>wordShift] &^= 1 << (uint(i) & wordMask)
	}
}
