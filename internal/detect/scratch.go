package detect

import "sync"

// scratchList recycles per-decision working memory across calls and
// goroutines, so a Decider shared by every channel of an engine stays
// safe for concurrent use while a steady stream of decisions allocates
// nothing. It is a mutex-guarded free list, not a sync.Pool, because a
// pool may drop its entries at any GC (and, under the race detector, at
// random). It holds at most as many entries as decisions ever ran at
// once, each as large as the largest window it served.
type scratchList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *scratchList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) == 0 {
		return new(T)
	}
	s := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return s
}

func (l *scratchList[T]) put(s *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, s)
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
