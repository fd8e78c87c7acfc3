package fft

import (
	"fmt"
	"math"
	"sync"
)

// This file is the process-wide transform cache: roots-of-unity tables,
// shared plans, and pooled scratch buffers. Together they remove the two
// steady-state costs the estimator hot paths used to pay per call — table
// construction (NewPlan) and per-sample cmplx.Exp evaluation — leaving
// only table lookups and butterflies on the hot paths.

var (
	rootsCache     sync.Map // int -> []complex128
	planCache      sync.Map // int -> *Plan
	fixedPlanCache sync.Map // int -> *FixedPlan
	scratchPools   sync.Map // int -> *sync.Pool of *[]complex128
)

// Roots returns the cached roots-of-unity table for size n:
// Roots(n)[i] = e^{-j2πi/n} for i in [0, n). The table serves both as the
// twiddle source for plans and as the derotation/downconversion table the
// estimators index instead of calling cmplx.Exp per sample — a rotation by
// e^{-j2π·p/n} for any integer p is Roots(n)[p mod n], exact for
// arbitrarily large p because the reduction happens in integers.
//
// The table is computed once per size, shared process-wide, and must be
// treated as read-only. n need not be a power of two.
func Roots(n int) ([]complex128, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: roots table size %d must be >= 1", n)
	}
	if v, ok := rootsCache.Load(n); ok {
		return v.([]complex128), nil
	}
	r := make([]complex128, n)
	for i := range r {
		ang := -2 * math.Pi * float64(i) / float64(n)
		r[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	// Snap the axis roots to their exact values: cos/sin of the rounded
	// angles leave ~1e-16 dirt in the components that are mathematically
	// zero (and a -0 imaginary part at i=0). Exact axis entries let the
	// transform kernels turn multiplies by 1 and -j into plain moves.
	r[0] = 1
	if n%2 == 0 {
		r[n/2] = -1
	}
	if n%4 == 0 {
		r[n/4] = complex(0, -1)
		r[3*n/4] = complex(0, 1)
	}
	v, _ := rootsCache.LoadOrStore(n, r)
	return v.([]complex128), nil
}

// RootIdx reduces an arbitrary integer exponent to its table index:
// Roots(n)[RootIdx(p, n)] = e^{-j2πp/n} for any p, including negative.
func RootIdx(p, n int) int {
	p %= n
	if p < 0 {
		p += n
	}
	return p
}

// PlanFor returns the shared plan for size n, building it on first use.
// Plans are immutable after construction, so the returned plan is safe for
// concurrent use by any number of goroutines.
func PlanFor(n int) (*Plan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*Plan), nil
}

// FixedPlanFor returns the shared fixed-point plan for size n, building it
// on first use. Like Plan, a FixedPlan is immutable after construction,
// so the returned plan is safe for concurrent use and gives the same bits
// as a fresh NewFixedPlan(n).
func FixedPlanFor(n int) (*FixedPlan, error) {
	if v, ok := fixedPlanCache.Load(n); ok {
		return v.(*FixedPlan), nil
	}
	p, err := NewFixedPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := fixedPlanCache.LoadOrStore(n, p)
	return v.(*FixedPlan), nil
}

func poolFor(n int) *sync.Pool {
	if v, ok := scratchPools.Load(n); ok {
		return v.(*sync.Pool)
	}
	p := &sync.Pool{New: func() any {
		s := make([]complex128, n)
		return &s
	}}
	v, _ := scratchPools.LoadOrStore(n, p)
	return v.(*sync.Pool)
}

// GetScratch returns a length-n scratch buffer (dirty: callers must not
// assume any particular contents) from the process-wide pool, to be
// returned with PutScratch when done. The pointer form lets the same
// header cell round-trip through the pool, so a steady-state Get/Put
// cycle allocates nothing.
func GetScratch(n int) *[]complex128 {
	return poolFor(n).Get().(*[]complex128)
}

// PutScratch returns a buffer obtained from GetScratch to its pool.
// A nil or empty buffer is ignored.
func PutScratch(buf *[]complex128) {
	if buf == nil || len(*buf) == 0 {
		return
	}
	poolFor(len(*buf)).Put(buf)
}
