package montium

import (
	"testing"
	"testing/quick"

	"tiledcfd/internal/fixed"
)

func TestMemoryReadWrite(t *testing.T) {
	m := &Memory{Name: "M01"}
	if err := m.Write(0, 42); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(MemWords-1, -7); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(0)
	if err != nil || v != 42 {
		t.Fatalf("Read(0) = %d, %v", v, err)
	}
	v, err = m.Read(MemWords - 1)
	if err != nil || v != -7 {
		t.Fatalf("Read(last) = %d, %v", v, err)
	}
	if m.Reads != 2 || m.Writes != 2 {
		t.Fatalf("counters %d/%d", m.Reads, m.Writes)
	}
}

func TestMemoryBounds(t *testing.T) {
	m := &Memory{Name: "M02"}
	if _, err := m.Read(-1); err == nil {
		t.Error("negative read should fail")
	}
	if _, err := m.Read(MemWords); err == nil {
		t.Error("overflow read should fail")
	}
	if err := m.Write(-1, 0); err == nil {
		t.Error("negative write should fail")
	}
	if err := m.Write(MemWords, 0); err == nil {
		t.Error("overflow write should fail")
	}
}

func TestMemoryComplexInterleave(t *testing.T) {
	m := &Memory{Name: "M09"}
	c := fixed.Complex{Re: 123, Im: -456}
	if err := m.WriteComplex(5, c); err != nil {
		t.Fatal(err)
	}
	// Words 10 and 11 hold re and im.
	re, _ := m.Read(10)
	im, _ := m.Read(11)
	if re != 123 || im != -456 {
		t.Fatalf("interleave: %d/%d", re, im)
	}
	got, err := m.ReadComplex(5)
	if err != nil || got != c {
		t.Fatalf("ReadComplex = %+v, %v", got, err)
	}
	if _, err := m.ReadComplex(ComplexCapacity()); err == nil {
		t.Error("complex overflow should fail")
	}
	if err := m.WriteComplex(ComplexCapacity(), c); err == nil {
		t.Error("complex overflow write should fail")
	}
}

func TestCapacityConstants(t *testing.T) {
	// The paper: M01..M08 total 8K words of 16 bits.
	if AccumCapacityWords != 8192 {
		t.Fatalf("accumulator capacity %d words, want 8192", AccumCapacityWords)
	}
	if ComplexCapacity() != 512 {
		t.Fatalf("complex capacity %d, want 512", ComplexCapacity())
	}
	if NumMemories != 10 {
		t.Fatalf("memories %d, want 10 (M01..M10)", NumMemories)
	}
}

func TestAGUSequential(t *testing.T) {
	g := AGU{Base: 4, InnerCount: 3, InnerStride: 1, OuterCount: 2, OuterStride: 10}
	g.Reset()
	want := []int{4, 5, 6, 14, 15, 16}
	for i, w := range want {
		if g.Remaining() != len(want)-i {
			t.Fatalf("Remaining = %d at %d", g.Remaining(), i)
		}
		a, ok := g.Next()
		if !ok || a != w {
			t.Fatalf("Next #%d = %d,%v want %d", i, a, ok, w)
		}
	}
	if _, ok := g.Next(); ok {
		t.Error("exhausted AGU should return ok=false")
	}
	if g.Remaining() != 0 {
		t.Error("Remaining after exhaustion != 0")
	}
}

func TestAGUModuloWrap(t *testing.T) {
	g := AGU{Base: 6, InnerCount: 4, InnerStride: 1, OuterCount: 1, Modulo: 8}
	g.Reset()
	want := []int{6, 7, 0, 1}
	for _, w := range want {
		a, ok := g.Next()
		if !ok || a != w {
			t.Fatalf("modulo walk got %d want %d", a, w)
		}
	}
	// Negative strides wrap positively.
	n := AGU{Base: 0, InnerCount: 3, InnerStride: -1, OuterCount: 1, Modulo: 8}
	n.Reset()
	wantNeg := []int{0, 7, 6}
	for _, w := range wantNeg {
		a, ok := n.Next()
		if !ok || a != w {
			t.Fatalf("negative stride got %d want %d", a, w)
		}
	}
}

func TestAGUValidate(t *testing.T) {
	bad := AGU{InnerCount: 0, OuterCount: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero inner count should fail")
	}
	bad2 := AGU{InnerCount: 1, OuterCount: 1, Modulo: -1}
	if err := bad2.Validate(); err == nil {
		t.Error("negative modulo should fail")
	}
	good := AGU{InnerCount: 1, OuterCount: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("good AGU rejected: %v", err)
	}
}

// Property: an AGU emits exactly InnerCount·OuterCount addresses, each
// matching the closed-form affine expression.
func TestQuickAGUAffine(t *testing.T) {
	f := func(base int8, ic, oc uint8, is, os int8, mod uint8) bool {
		g := AGU{
			Base:        int(base),
			InnerCount:  int(ic%8) + 1,
			InnerStride: int(is % 8),
			OuterCount:  int(oc%8) + 1,
			OuterStride: int(os % 8),
			Modulo:      int(mod % 64), // 0 = no wrap
		}
		if g.Validate() != nil {
			return false
		}
		g.Reset()
		count := 0
		for outer := 0; outer < g.OuterCount; outer++ {
			for inner := 0; inner < g.InnerCount; inner++ {
				want := g.Base + outer*g.OuterStride + inner*g.InnerStride
				if g.Modulo > 0 {
					want %= g.Modulo
					if want < 0 {
						want += g.Modulo
					}
				}
				got, ok := g.Next()
				if !ok || got != want {
					return false
				}
				count++
			}
		}
		_, ok := g.Next()
		return !ok && count == g.InnerCount*g.OuterCount
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoreLedger(t *testing.T) {
	c := NewCore(0)
	c.BeginSection("alpha")
	c.tick(5)
	c.BeginSection("beta")
	c.tick(3)
	c.tick(2)
	if c.Cycles() != 10 {
		t.Fatalf("cycles %d", c.Cycles())
	}
	if c.CyclesIn("alpha") != 5 || c.CyclesIn("beta") != 5 {
		t.Fatalf("ledger %d/%d", c.CyclesIn("alpha"), c.CyclesIn("beta"))
	}
	secs := c.Sections()
	if len(secs) != 2 || secs[0] != "alpha" {
		t.Fatalf("sections %v", secs)
	}
}

func TestCoreString(t *testing.T) {
	c := NewCore(3)
	c.BeginSection("x")
	c.tick(1)
	s := c.String()
	if s == "" || c.Mem[0].Name != "M01" || c.Mem[9].Name != "M10" {
		t.Fatalf("core naming wrong: %q %s %s", s, c.Mem[0].Name, c.Mem[9].Name)
	}
}
