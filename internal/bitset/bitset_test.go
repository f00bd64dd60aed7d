package bitset

import (
	"math/bits"
	"testing"
)

// count returns the number of set bits.
func count(s *Set) int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

func TestSetTestClear(t *testing.T) {
	s := New(200)
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	for _, i := range []int32{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Test(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := count(s); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.TestAndSet(63) != true {
		t.Fatal("TestAndSet(63) should report already-set")
	}
	if s.TestAndSet(64) != false {
		t.Fatal("TestAndSet(64) should report previously-clear")
	}
	if !s.Test(64) {
		t.Fatal("TestAndSet did not set bit 64")
	}
}

func TestResetReusesAndClears(t *testing.T) {
	s := New(128)
	for i := int32(0); i < 128; i++ {
		s.Set(i)
	}
	s.Reset(64)
	if s.Len() != 64 {
		t.Fatalf("Len = %d after Reset(64)", s.Len())
	}
	for i := int32(0); i < 64; i++ {
		if s.Test(i) {
			t.Fatalf("bit %d survived Reset", i)
		}
	}
	s.Reset(1024) // grow
	for i := int32(0); i < 1024; i += 7 {
		if s.Test(i) {
			t.Fatalf("bit %d set after growing Reset", i)
		}
	}
}

func TestClearList(t *testing.T) {
	s := New(300)
	ids := []int32{3, 64, 65, 255, 299}
	for _, i := range ids {
		s.Set(i)
	}
	s.Set(100)
	s.ClearList(ids)
	if count(s) != 1 || !s.Test(100) {
		t.Fatalf("ClearList left wrong bits: count=%d", count(s))
	}
}
