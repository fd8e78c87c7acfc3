package main

import (
	"math"
	"time"
)

// Other tenants of a shared host slow its CPUs down by up to half for
// milliseconds to minutes at a time, and the thread CPU time slows with
// them. setup_s is therefore scaled to a nominal host speed: each set-up
// probe process times two bench-owned reference kernels just before it
// builds the system, a cache-resident complex multiply-add loop and a
// 1024-point FFT plus a sweep over a buffer larger than L2, and divides
// its set-up time by (reference / nominalRefUs). The program has not run
// yet when the kernels are timed, so no change to it can move them, and
// the set-up that follows within milliseconds sees the same host speed.
const nominalRefUs = 100.0

// refReps is how many times refNow runs the kernel pair; the pair takes
// about 0.3 ms.
const refReps = 7

// refNow runs both kernels refReps times and returns the geometric mean
// of their median times in µs.
func refNow() float64 {
	small := make([]complex128, 256)
	fft := make([]complex128, 1024)
	sweep := make([]float64, 1<<18)
	mac, ffts := make([]float64, refReps), make([]float64, refReps)
	for i := range mac {
		t0 := time.Now()
		macKernel(small)
		t1 := time.Now()
		fftKernel(fft)
		sweepKernel(sweep)
		t2 := time.Now()
		mac[i], ffts[i] = float64(t1.Sub(t0)), float64(t2.Sub(t1))
	}
	return math.Sqrt(median(mac)*median(ffts)) / 1e3
}

// The kernels work in place on their buffers, which keeps the compiler
// from dropping them.

func macKernel(a []complex128) {
	for i := range a {
		a[i] = complex(float64(i), 1)
	}
	w := complex(0.9999, 0.001)
	for r := 0; r < 40; r++ {
		for i := 1; i < len(a); i++ {
			a[i] = a[i]*w + a[i-1]*0.5
		}
	}
}

func fftKernel(a []complex128) {
	n := len(a)
	for i := range a {
		a[i] = complex(math.Sin(float64(i)), 0)
	}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for l := 2; l <= n; l <<= 1 {
		ang := -2 * math.Pi / float64(l)
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += l {
			w := complex(1, 0)
			for k := 0; k < l/2; k++ {
				u, v := a[i+k], a[i+k+l/2]*w
				a[i+k], a[i+k+l/2] = u+v, u-v
				w *= wl
			}
		}
	}
}

func sweepKernel(b []float64) {
	for i := 0; i < len(b); i += 16 {
		b[i] += 1
	}
}
