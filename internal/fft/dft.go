package fft

import (
	"math"
	"math/cmplx"
)

// DFT computes the forward discrete Fourier transform of x by direct
// O(n²) evaluation. It accepts any length and serves as the ground truth
// for FFT tests.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for v := 0; v < n; v++ {
		var sum complex128
		for k := 0; k < n; k++ {
			sum += x[k] * cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(v)/float64(n)))
		}
		out[v] = sum
	}
	return out
}

// BinIndex maps a possibly negative bin index to its position in a
// length-n spectrum slice.
func BinIndex(n, v int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}
