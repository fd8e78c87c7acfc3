package montium

import (
	"fmt"
	"sort"
	"strings"

	"tiledcfd/internal/trace"
)

// Ledger section names, matching the rows of the paper's Table 1, plus
// the energy-detector stage of section 2 (not part of the Table 1 budget).
const (
	SectionMAC       = "multiply accumulate"
	SectionReadData  = "read data"
	SectionFFT       = "FFT"
	SectionReshuffle = "reshuffling"
	SectionInit      = "initialisation"
	SectionEnergy    = "energy detector"
)

// Core is one Montium processing tile: ten parallel memories, the complex
// ALU's operation counters, and a cycle ledger keyed by kernel section.
type Core struct {
	// ID identifies the tile (the q of the folded mapping).
	ID int
	// Mem holds M01..M10 at indices 0..9.
	Mem [NumMemories]*Memory

	cycles  int64
	ledger  map[string]int64
	section string

	// MACs, Butterflies and Moves count the ALU operations retired.
	MACs, Butterflies, Moves int64

	cfg *CFDConfig
	// resultInA records which ping-pong buffer (M09 = A, M10 = B) holds
	// the latest FFT result; shuffled records whether the reshuffled
	// spectrum is valid in the opposite buffer; samplesValid records
	// whether buffer A still holds raw time samples (before the FFT
	// overwrites them).
	resultInA    bool
	shuffled     bool
	samplesValid bool

	tracer       *trace.Recorder
	traceName    string
	sectionStart int64
}

// NewCore builds an idle core with zeroed memories.
func NewCore(id int) *Core {
	c := &Core{ID: id, ledger: make(map[string]int64)}
	for i := range c.Mem {
		c.Mem[i] = &Memory{Name: fmt.Sprintf("M%02d", i+1)}
	}
	return c
}

// BeginSection directs subsequent cycles into the named ledger section,
// closing the previous section's trace span if a tracer is attached.
func (c *Core) BeginSection(name string) {
	if name == c.section {
		return
	}
	c.closeSpan()
	c.section = name
}

// SetTracer attaches a span recorder under the given source name; pass
// nil to detach. Call FlushTrace after the last kernel to close the open
// span.
func (c *Core) SetTracer(r *trace.Recorder, name string) {
	c.closeSpan()
	c.tracer = r
	c.traceName = name
	c.sectionStart = c.cycles
}

// FlushTrace closes the currently open trace span.
func (c *Core) FlushTrace() { c.closeSpan() }

// closeSpan emits the span covering [sectionStart, cycles) of the current
// section, if any.
func (c *Core) closeSpan() {
	if c.tracer != nil && c.section != "" && c.cycles > c.sectionStart {
		c.tracer.Record(trace.Span{
			Source:  c.traceName,
			Section: c.section,
			Start:   c.sectionStart,
			Cycles:  c.cycles - c.sectionStart,
		})
	}
	c.sectionStart = c.cycles
}

// tick advances the clock by n cycles within the current section.
func (c *Core) tick(n int64) {
	c.cycles += n
	if c.section != "" {
		c.ledger[c.section] += n
	}
}

// Cycles returns the total elapsed clock cycles.
func (c *Core) Cycles() int64 { return c.cycles }

// CyclesIn returns the cycles attributed to a ledger section.
func (c *Core) CyclesIn(section string) int64 { return c.ledger[section] }

// Sections lists the ledger sections in deterministic (sorted) order.
func (c *Core) Sections() []string {
	out := make([]string, 0, len(c.ledger))
	for k := range c.ledger {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MemoryTraffic sums reads and writes over all ten memories.
func (c *Core) MemoryTraffic() (reads, writes int64) {
	for _, m := range c.Mem {
		reads += m.Reads
		writes += m.Writes
	}
	return reads, writes
}

// String summarises the core state for diagnostics.
func (c *Core) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Montium core %d: %d cycles", c.ID, c.cycles)
	for _, s := range c.Sections() {
		fmt.Fprintf(&b, "; %s=%d", s, c.ledger[s])
	}
	return b.String()
}
