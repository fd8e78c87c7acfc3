package scf

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestSurfaceIndexing(t *testing.T) {
	s := NewSurface(4) // 7x7, f,a in [-3,3]
	if s.Extent() != 7 {
		t.Fatalf("extent = %d", s.Extent())
	}
	s.Add(-3, 3, complex(1, 2))
	if got := s.At(-3, 3); got != complex(1, 2) {
		t.Fatalf("At(-3,3) = %v", got)
	}
	if got := s.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v", got)
	}
}

func TestSurfaceAtPanicsOffGrid(t *testing.T) {
	s := NewSurface(2)
	defer func() {
		if recover() == nil {
			t.Error("At off-grid should panic")
		}
	}()
	s.At(2, 0)
}

func TestSurfaceAddPanicsOffGrid(t *testing.T) {
	s := NewSurface(2)
	defer func() {
		if recover() == nil {
			t.Error("Add off-grid should panic")
		}
	}()
	s.Add(0, -2, 1)
}

func TestSurfaceScale(t *testing.T) {
	s := NewSurface(2)
	s.Add(1, 1, complex(2, -4))
	s.Scale(0.5)
	if got := s.At(1, 1); got != complex(1, -2) {
		t.Fatalf("scaled cell = %v", got)
	}
}

func TestAlphaProfile(t *testing.T) {
	s := NewSurface(3)         // a in [-2,2]
	s.Add(0, 2, complex(3, 4)) // |.|=5
	s.Add(1, 2, complex(0, 1)) // |.|=1
	s.Add(0, 0, complex(1, 0))
	prof := s.AlphaProfile()
	if len(prof) != 5 {
		t.Fatalf("profile length %d", len(prof))
	}
	if math.Abs(prof[4]-6) > 1e-12 { // a=+2 row
		t.Fatalf("profile[a=2] = %v, want 6", prof[4])
	}
	if math.Abs(prof[2]-1) > 1e-12 { // a=0 row
		t.Fatalf("profile[a=0] = %v, want 1", prof[2])
	}
	if prof[0] != 0 {
		t.Fatalf("profile[a=-2] = %v, want 0", prof[0])
	}
}

func TestMaxFeature(t *testing.T) {
	s := NewSurface(3)
	s.Add(0, 0, complex(100, 0)) // dominant PSD cell
	s.Add(-1, 2, complex(0, 7))  // cyclic feature
	f, a, mag := s.MaxFeature(false)
	if f != 0 || a != 0 || mag != 100 {
		t.Fatalf("MaxFeature(false) = (%d,%d,%v)", f, a, mag)
	}
	f, a, mag = s.MaxFeature(true)
	if f != -1 || a != 2 || mag != 7 {
		t.Fatalf("MaxFeature(true) = (%d,%d,%v)", f, a, mag)
	}
}

func TestHermitianError(t *testing.T) {
	s := NewSurface(2)
	s.Add(1, 1, complex(1, 2))
	s.Add(1, -1, cmplx.Conj(complex(1, 2)))
	if e := s.HermitianError(); e > 1e-15 {
		t.Fatalf("symmetric surface error %v", e)
	}
	s.Add(1, -1, complex(0, 1)) // break symmetry
	if e := s.HermitianError(); math.Abs(e-1) > 1e-12 {
		t.Fatalf("asymmetry %v, want 1", e)
	}
}

func TestMaxAbsDiffPanicsOnExtent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("extent mismatch should panic")
		}
	}()
	MaxAbsDiff(NewSurface(2), NewSurface(3))
}

func TestTotalEnergy(t *testing.T) {
	s := NewSurface(2)
	s.Add(0, 0, complex(3, 4))
	if got := s.TotalEnergy(); math.Abs(got-25) > 1e-12 {
		t.Fatalf("TotalEnergy = %v", got)
	}
}
