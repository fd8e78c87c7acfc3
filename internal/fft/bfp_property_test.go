package fft

import (
	"math"
	"math/rand"
	"testing"

	"tiledcfd/internal/fixed"
)

// bfpPropertyInputs builds the structured blocks the scaled-FFT property
// tests sweep: degenerate shapes that historically stress fixed-point
// FFTs (zero, impulse, rail constants, alternating rails, a quantised
// tone) plus seeded random fills.
func bfpPropertyInputs(n int) map[string][]fixed.Complex {
	mk := func(f func(i int) fixed.Complex) []fixed.Complex {
		v := make([]fixed.Complex, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	rng := rand.New(rand.NewSource(int64(n)))
	return map[string][]fixed.Complex{
		"zero": mk(func(int) fixed.Complex { return fixed.Complex{} }),
		"impulse": mk(func(i int) fixed.Complex {
			if i == 0 {
				return fixed.Complex{Re: fixed.MaxQ15}
			}
			return fixed.Complex{}
		}),
		"rail": mk(func(int) fixed.Complex { return fixed.Complex{Re: fixed.MaxQ15, Im: fixed.MinQ15} }),
		"altRail": mk(func(i int) fixed.Complex {
			if i%2 == 0 {
				return fixed.Complex{Re: fixed.MaxQ15, Im: fixed.MaxQ15}
			}
			return fixed.Complex{Re: fixed.MinQ15, Im: fixed.MinQ15}
		}),
		"tone": mk(func(i int) fixed.Complex {
			ph := 2 * math.Pi * 3 * float64(i) / float64(n)
			return fixed.CFromFloat(complex(0.7*math.Cos(ph), 0.7*math.Sin(ph)))
		}),
		"weak": mk(func(i int) fixed.Complex {
			return fixed.Complex{Re: fixed.Q15(rng.Intn(17) - 8), Im: fixed.Q15(rng.Intn(17) - 8)}
		}),
		"random": mk(func(int) fixed.Complex {
			return fixed.Complex{Re: fixed.Q15(rng.Intn(1<<16) - 1<<15), Im: fixed.Q15(rng.Intn(1<<16) - 1<<15)}
		}),
	}
}

// TestForwardScaledKernelInvariant is the deterministic counterpart of
// FuzzForwardScaledKernels: across sizes, structured inputs and both
// scaling policies, every fixed.Kernels implementation must produce the
// same output words and the same exponent, and ScaleUniform must stay
// bit-identical to the Montium-style Forward with exponent log2(n).
func TestForwardScaledKernelInvariant(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256} {
		p, err := NewFixedPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range bfpPropertyInputs(n) {
			for _, policy := range []ScalingPolicy{ScaleBFP, ScaleUniform} {
				a := make([]fixed.Complex, n)
				b := make([]fixed.Complex, n)
				ea, err := p.ForwardScaledWith(fixed.ScalarKernels{}, a, src, policy)
				if err != nil {
					t.Fatal(err)
				}
				eb, err := p.ForwardScaledWith(fixed.SWARKernels{}, b, src, policy)
				if err != nil {
					t.Fatal(err)
				}
				if ea != eb {
					t.Fatalf("n=%d %s %v: exponent %d (scalar) != %d (swar)", n, name, policy, ea, eb)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("n=%d %s %v: element %d: %+v (scalar) != %+v (swar)",
							n, name, policy, i, a[i], b[i])
					}
				}
				if policy == ScaleUniform {
					c := make([]fixed.Complex, n)
					if err := p.Forward(c, src); err != nil {
						t.Fatal(err)
					}
					if ea != p.Stages() {
						t.Fatalf("n=%d %s: uniform exponent %d != stages %d", n, name, ea, p.Stages())
					}
					for i := range a {
						if a[i] != c[i] {
							t.Fatalf("n=%d %s: uniform element %d: %+v != Forward %+v", n, name, i, a[i], c[i])
						}
					}
				}
			}
		}
	}
}

// TestForwardScaledBFPExponentBounds pins the dynamic-range property BFP
// exists for: the tracked exponent stays within two bits of the uniform
// policy's log2(n) even for rail-valued inputs (the initial peak can
// demand a two-bit pre-shift before the first stage), and a weak block —
// too small for any stage's worst-case growth to reach the overflow
// guard — comes through with exponent 0, every significant bit intact.
func TestForwardScaledBFPExponentBounds(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256} {
		p, err := NewFixedPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range bfpPropertyInputs(n) {
			dst := make([]fixed.Complex, n)
			exp, err := p.ForwardScaledWith(fixed.Active(), dst, src, ScaleBFP)
			if err != nil {
				t.Fatal(err)
			}
			if exp < 0 || exp > p.Stages()+2 {
				t.Errorf("n=%d %s: BFP exponent %d outside [0, %d]", n, name, exp, p.Stages()+2)
			}
			if name == "weak" && exp != 0 {
				t.Errorf("n=%d: weak block scaled by 2^%d; want no shift", n, exp)
			}
		}
	}
}

// TestForwardScaledBatchMatchesSingle checks the batched entry point the
// Q15 estimators feed whole snapshots through is nothing but the
// per-block transform: identical words and exponents, in order.
func TestForwardScaledBatchMatchesSingle(t *testing.T) {
	const n = 64
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	inputs := bfpPropertyInputs(n)
	for _, policy := range []ScalingPolicy{ScaleBFP, ScaleUniform} {
		var batch [][]fixed.Complex
		var single [][]fixed.Complex
		var names []string
		for name, src := range inputs {
			batch = append(batch, append([]fixed.Complex(nil), src...))
			single = append(single, append([]fixed.Complex(nil), src...))
			names = append(names, name)
		}
		exps, err := p.ForwardScaledBatchWith(fixed.Active(), batch, policy)
		if err != nil {
			t.Fatal(err)
		}
		for bi := range single {
			e, err := p.ForwardScaledWith(fixed.Active(), single[bi], single[bi], policy)
			if err != nil {
				t.Fatal(err)
			}
			if e != exps[bi] {
				t.Fatalf("%v %s: batch exponent %d != single %d", policy, names[bi], exps[bi], e)
			}
			for i := range single[bi] {
				if batch[bi][i] != single[bi][i] {
					t.Fatalf("%v %s: batch element %d differs from single transform", policy, names[bi], i)
				}
			}
		}
	}
}

// TestForwardScaledAllocs guards the batched strip path's allocation
// behaviour: the per-block transform is allocation-free and the batch
// wrapper allocates only its exponent slice, independent of the batch
// size — the property that lets the estimators push every channelizer
// hop of a snapshot through one invocation without per-hop garbage.
func TestForwardScaledAllocs(t *testing.T) {
	const n, blocks = 256, 64
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	kern := fixed.Active()
	rng := rand.New(rand.NewSource(9))
	fill := func(v []fixed.Complex) {
		for i := range v {
			v[i] = fixed.Complex{Re: fixed.Q15(rng.Intn(1<<16) - 1<<15), Im: fixed.Q15(rng.Intn(1<<16) - 1<<15)}
		}
	}
	buf := make([]fixed.Complex, n)
	fill(buf)
	if a := testing.AllocsPerRun(20, func() {
		if _, err := p.ForwardScaledWith(kern, buf, buf, ScaleBFP); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("ForwardScaledWith allocates %v times per call, want 0", a)
	}
	batch := make([][]fixed.Complex, blocks)
	for i := range batch {
		batch[i] = make([]fixed.Complex, n)
		fill(batch[i])
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := p.ForwardScaledBatchWith(kern, batch, ScaleBFP); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("ForwardScaledBatchWith(%d blocks) allocates %v times per call, want <= 1", blocks, a)
	}
}
