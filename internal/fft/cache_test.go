package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"tiledcfd/internal/fixed"
)

func TestRootsValues(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 60, 256} {
		r, err := Roots(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != n {
			t.Fatalf("Roots(%d) length %d", n, len(r))
		}
		for i := range r {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(i)/float64(n)))
			if cmplx.Abs(r[i]-want) > 1e-15 {
				t.Fatalf("Roots(%d)[%d] = %v, want %v", n, i, r[i], want)
			}
		}
	}
	if _, err := Roots(0); err == nil {
		t.Error("Roots(0) should fail")
	}
}

func TestRootsCached(t *testing.T) {
	a, err := Roots(64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Roots(64)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("Roots(64) returned distinct tables on repeat call")
	}
}

func TestRootIdx(t *testing.T) {
	r, err := Roots(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{-33, -16, -1, 0, 1, 15, 16, 17, 1000003} {
		idx := RootIdx(p, 16)
		if idx < 0 || idx >= 16 {
			t.Fatalf("RootIdx(%d, 16) = %d out of range", p, idx)
		}
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(p)/16))
		if cmplx.Abs(r[idx]-want) > 1e-9 {
			t.Fatalf("Roots(16)[RootIdx(%d)] = %v, want %v", p, r[idx], want)
		}
	}
}

func TestPlanForCachedAndEquivalent(t *testing.T) {
	p1, err := PlanFor(32)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanFor(32)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("PlanFor(32) returned distinct plans on repeat call")
	}
	if _, err := PlanFor(12); err == nil {
		t.Error("PlanFor(12) should fail (not a power of two)")
	}
	// A cached plan must transform identically to a private one.
	priv, err := NewPlan(32)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 32)
	for i := range x {
		x[i] = complex(math.Sin(0.3*float64(i)), math.Cos(0.1*float64(i)))
	}
	a := make([]complex128, 32)
	b := make([]complex128, 32)
	if err := p1.Forward(a, x); err != nil {
		t.Fatal(err)
	}
	if err := priv.Forward(b, x); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached and private plans disagree at bin %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFixedPlanForCachedAndEquivalent: repeat lookups share one plan,
// concurrent first lookups agree on it, and the cached plan gives the
// words and exponent of a fresh NewFixedPlan under both scaling policies.
func TestFixedPlanForCachedAndEquivalent(t *testing.T) {
	p1, err := FixedPlanFor(64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := FixedPlanFor(64)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("FixedPlanFor(64) returned distinct plans on repeat call")
	}
	if _, err := FixedPlanFor(12); err == nil {
		t.Error("FixedPlanFor(12) should fail (not a power of two)")
	}
	const n, goroutines = 512, 8
	plans := make([]*FixedPlan, goroutines)
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := FixedPlanFor(n)
			if err != nil {
				t.Error(err)
				return
			}
			plans[g] = p
		}()
	}
	wg.Wait()
	for g, p := range plans {
		if p != plans[0] {
			t.Fatalf("concurrent FixedPlanFor(%d): goroutine %d got a distinct plan", n, g)
		}
	}
	fresh, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]fixed.Complex, n)
	for i := range x {
		x[i] = fixed.CFromFloat(complex(0.4*math.Sin(0.3*float64(i)), 0.3*math.Cos(0.1*float64(i))))
	}
	for _, policy := range []ScalingPolicy{ScaleBFP, ScaleUniform} {
		a, b := make([]fixed.Complex, n), make([]fixed.Complex, n)
		ea, err := plans[0].ForwardScaledWith(fixed.Active(), a, x, policy)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := fresh.ForwardScaledWith(fixed.Active(), b, x, policy)
		if err != nil {
			t.Fatal(err)
		}
		if ea != eb {
			t.Fatalf("%s: cached plan exponent %d, fresh %d", policy, ea, eb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: cached and fresh plans disagree at bin %d: %v vs %v", policy, i, a[i], b[i])
			}
		}
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	s := GetScratch(128)
	if len(*s) != 128 {
		t.Fatalf("GetScratch(128) length %d", len(*s))
	}
	PutScratch(s)
	PutScratch(nil) // harmless
	s2 := GetScratch(128)
	if len(*s2) != 128 {
		t.Fatalf("recycled scratch length %d", len(*s2))
	}
	PutScratch(s2)
}

func TestForwardZeroAllocs(t *testing.T) {
	p, err := PlanFor(256)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]complex128, 256)
	dst := make([]complex128, 256)
	for i := range src {
		src[i] = complex(float64(i%7), float64(i%5))
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := p.Forward(dst, src); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Plan.Forward allocates %v times per call, want 0", a)
	}
}

func TestInverseZeroAllocs(t *testing.T) {
	p, err := PlanFor(256)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]complex128, 256)
	dst := make([]complex128, 256)
	for i := range src {
		src[i] = complex(float64(i%7), float64(i%5))
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := p.Inverse(dst, src); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Plan.Inverse allocates %v times per call, want 0", a)
	}
}

func TestInverseAliasedRoundTrip(t *testing.T) {
	p, err := PlanFor(64)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(math.Cos(0.2*float64(i)), math.Sin(0.7*float64(i)))
	}
	orig := make([]complex128, 64)
	copy(orig, x)
	// Forward then inverse fully in place must return the input.
	if err := p.Forward(x, x); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(x, x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-12 {
			t.Fatalf("in-place round trip diverges at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}
