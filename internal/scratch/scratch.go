package scratch

import "sync"

// Bound is the most idle values a List keeps. pmsynthd runs two sweep
// jobs at once by default, each over at most GOMAXPROCS points at a time;
// a caller past the bound allocates, and its value is dropped on Put.
const Bound = 8

// List is a bounded free list of *T. The zero List is empty and ready to
// use, and it is safe for concurrent use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns an idle value, or a new zero one when none is idle. The
// caller owns it until it passes it to Put.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	v := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return v
}

// Put makes v idle for a later Get, or drops it when Bound values are
// idle already. The caller must not touch v, or anything it still points
// to, afterwards.
func (l *List[T]) Put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < Bound {
		l.free = append(l.free, v)
	}
}

// Grow returns s resized to n, reusing its array when the capacity
// allows. The elements are not cleared.
func Grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}
