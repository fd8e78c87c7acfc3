package fft

import (
	"fmt"
	"math"
)

// WindowKind selects an analysis window shape.
type WindowKind int

// Supported window shapes.
const (
	// Rectangular is the implicit window of the paper's expression 2.
	Rectangular WindowKind = iota
	// Hann is the raised-cosine window.
	Hann
	// Hamming is the 25/46 raised-cosine window.
	Hamming
	// Blackman is the three-term Blackman window.
	Blackman
)

// String returns the window's conventional name.
func (w WindowKind) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return fmt.Sprintf("WindowKind(%d)", int(w))
	}
}

// Window returns the n coefficients of the requested window. The
// rectangular window is all ones. Periodic (DFT-even) forms are used, as
// appropriate for spectral estimation.
func Window(kind WindowKind, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fft: window size %d must be positive", n)
	}
	w := make([]float64, n)
	switch kind {
	case Rectangular:
		for i := range w {
			w[i] = 1
		}
	case Hann:
		for i := range w {
			w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n))
		}
	case Hamming:
		for i := range w {
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n))
		}
	case Blackman:
		for i := range w {
			c := 2 * math.Pi * float64(i) / float64(n)
			w[i] = 0.42 - 0.5*math.Cos(c) + 0.08*math.Cos(2*c)
		}
	default:
		return nil, fmt.Errorf("fft: unknown window kind %d", int(kind))
	}
	return w, nil
}

// ApplyWindowInto multiplies x elementwise by the window coefficients into
// dst (which may alias x), allocating nothing. All lengths must match.
// Estimators call it per block with a pooled dst.
func ApplyWindowInto(dst, x []complex128, w []float64) error {
	if len(x) != len(w) || len(dst) != len(x) {
		return fmt.Errorf("fft: window length %d != signal length %d/%d", len(w), len(x), len(dst))
	}
	for i := range x {
		dst[i] = x[i] * complex(w[i], 0)
	}
	return nil
}
