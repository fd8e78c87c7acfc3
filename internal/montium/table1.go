package montium

import (
	"fmt"
	"strings"
)

// Table1 is the cycle breakdown of one DSCF integration step on one core,
// in the paper's Table 1 rows.
type Table1 struct {
	// MultiplyAccumulate counts the folded DSCF loop's cycles.
	MultiplyAccumulate int64
	// ReadData counts the sample-streaming cycles.
	ReadData int64
	// FFT counts the FFT kernel cycles.
	FFT int64
	// Reshuffle counts the memory reshuffling cycles.
	Reshuffle int64
	// Initialisation counts the per-step setup cycles.
	Initialisation int64
}

// Total returns the summed cycle count (the paper: 13996).
func (t Table1) Total() int64 {
	return t.MultiplyAccumulate + t.ReadData + t.FFT + t.Reshuffle + t.Initialisation
}

// Table1 extracts the ledger into the paper's table. Call after running
// exactly one integration step.
func (c *Core) Table1() Table1 {
	return Table1{
		MultiplyAccumulate: c.CyclesIn(SectionMAC),
		ReadData:           c.CyclesIn(SectionReadData),
		FFT:                c.CyclesIn(SectionFFT),
		Reshuffle:          c.CyclesIn(SectionReshuffle),
		Initialisation:     c.CyclesIn(SectionInit),
	}
}

// PaperTable1 returns the published cycle counts of the paper's Table 1
// for the 256-point, Q=4 configuration.
func PaperTable1() Table1 {
	return Table1{
		MultiplyAccumulate: 12192,
		ReadData:           381,
		FFT:                1040,
		Reshuffle:          256,
		Initialisation:     127,
	}
}

// String renders the table in the paper's layout.
func (t Table1) String() string {
	var b strings.Builder
	b.WriteString("Task                  #cycles\n")
	fmt.Fprintf(&b, "multiply accumulate   %7d\n", t.MultiplyAccumulate)
	fmt.Fprintf(&b, "read data             %7d\n", t.ReadData)
	fmt.Fprintf(&b, "FFT                   %7d\n", t.FFT)
	fmt.Fprintf(&b, "reshuffling           %7d\n", t.Reshuffle)
	fmt.Fprintf(&b, "initialisation        %7d\n", t.Initialisation)
	fmt.Fprintf(&b, "total                 %7d\n", t.Total())
	return b.String()
}
