// Package freelist recycles working memory across calls and goroutines:
// the per-decision scratch of internal/detect's deciders and the fold
// scratch of internal/fam's accumulators. State that a computation needs
// only while it runs is borrowed from a List instead of kept per channel,
// so serving memory follows the number of computations running at once,
// not the number of channels, and a steady stream allocates nothing.
package freelist

import "sync"

// List is a mutex-guarded free list of *T, safe for concurrent use. It
// is not a sync.Pool because a pool may drop its entries at any GC (and,
// under the race detector, at random), which would make a steady stream
// allocate. A List holds at most as many entries as were ever borrowed
// at once; the zero value is empty and ready to use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get borrows an entry, or a new zero T when none is free. Its slices
// keep whatever size and contents they were returned with.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) == 0 {
		return new(T)
	}
	s := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return s
}

// Put returns an entry borrowed with Get. The caller must not use it
// afterwards.
func (l *List[T]) Put(s *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, s)
}

// Grow returns buf resliced to n elements, reallocating only when its
// capacity is short, so scratch sized by the largest request it served
// stops allocating. The contents are not cleared.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
