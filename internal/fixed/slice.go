package fixed

// FromFloatSlice converts a float64 complex slice to Q15 complex values
// with rounding and saturation.
func FromFloatSlice(x []complex128) []Complex {
	out := make([]Complex, len(x))
	for i, v := range x {
		out[i] = CFromFloat(v)
	}
	return out
}

// ToFloatSlice converts a Q15 complex slice to complex128.
func ToFloatSlice(x []Complex) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v.Complex128()
	}
	return out
}

// ScaleSliceFloat scales a float64 complex slice so that the largest
// component magnitude equals target (0 < target <= 1), returning the scale
// factor applied. A zero slice is returned unchanged with scale 1. Used to
// condition generator output before Q15 quantisation.
func ScaleSliceFloat(x []complex128, target float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := absFloat(real(v)); a > m {
			m = a
		}
		if a := absFloat(imag(v)); a > m {
			m = a
		}
	}
	if m == 0 {
		return 1
	}
	s := target / m
	for i := range x {
		x[i] *= complex(s, 0)
	}
	return s
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
