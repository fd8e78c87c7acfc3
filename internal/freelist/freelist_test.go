package freelist

import "testing"

// TestListRecycles: Get hands out a new entry when the list is empty and
// the most recently returned one otherwise, so a steady borrow-return
// cycle allocates nothing.
func TestListRecycles(t *testing.T) {
	var l List[[]int]
	a := l.Get()
	*a = Grow(*a, 8)
	l.Put(a)
	if b := l.Get(); b != a || len(*b) != 8 {
		t.Fatalf("Get returned %p (len %d), want the returned %p (len 8)", b, len(*b), a)
	}
	if c := l.Get(); c == a {
		t.Fatal("Get handed out an entry still borrowed")
	}
	l.Put(a)
	if allocs := testing.AllocsPerRun(100, func() {
		s := l.Get()
		*s = Grow(*s, 8)
		l.Put(s)
	}); allocs != 0 {
		t.Errorf("steady Get+Grow+Put allocates %v objects", allocs)
	}
}

// TestGrowKeepsCapacity: Grow reallocates only when the capacity is short.
func TestGrowKeepsCapacity(t *testing.T) {
	buf := make([]int, 4, 16)
	if got := Grow(buf, 12); &got[0] != &buf[0] || len(got) != 12 {
		t.Fatal("Grow reallocated within capacity")
	}
	if got := Grow(buf, 17); len(got) != 17 || cap(got) < 17 {
		t.Fatalf("Grow to 17 gave len %d cap %d", len(got), cap(got))
	}
}
