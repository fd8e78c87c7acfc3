package tile

import "fmt"

// Kind classifies a task by the pipeline step it models; the scheduler
// treats all kinds alike, reports group by them.
type Kind int

// The task kinds of the estimator pipelines.
const (
	// KindChannelize is a channelizer step: read samples, K-point FFT
	// (with reshuffling), downconversion.
	KindChannelize Kind = iota
	// KindProduct is one surface row's conjugate-product accumulation
	// across the smoothing length (FAM/direct second stage).
	KindProduct
	// KindStrip is one SSCA channel strip: full-rate conjugate product
	// plus the N-point strip FFT and derotation.
	KindStrip
	// KindReduce is the final gather: normalisation, Hermitian
	// mirroring, surface assembly.
	KindReduce
)

// String returns the kind's report label.
func (k Kind) String() string {
	switch k {
	case KindChannelize:
		return "channelize"
	case KindProduct:
		return "product"
	case KindStrip:
		return "strip"
	case KindReduce:
		return "reduce"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Task is one schedulable unit of an estimator pipeline.
type Task struct {
	// ID is the task's index in Graph.Tasks (dense, topological: every
	// edge points from a lower to a higher ID).
	ID int
	// Name labels the task in reports, e.g. "chan[3]" or "row[a=+17]".
	Name string
	// Kind classifies the pipeline step.
	Kind Kind
	// Stage is the pipeline stage index (0 = channelizer, 1 = products/
	// strips, 2 = reduce); the pipelined strategy maps stages to tiles.
	Stage int
	// Shard is the data-parallel index within the stage (hop number, row
	// number, strip number); the sharded strategy distributes shards.
	Shard int
	// Cycles is the modeled Montium datapath cycle cost of the task,
	// charged from the internal/montium kernel models.
	Cycles int64
	// MemWords is the task's resident footprint in 16-bit words (inputs
	// plus outputs) while it runs — the local-memory feasibility figure.
	MemWords int64
	// OutWords is the task's total distinct output in 16-bit words — the
	// ceiling on what one NoC shipment of its result can carry. Consumer
	// edges on one destination tile are summed and capped at it (exact
	// when consumers read disjoint slices, the union when they overlap).
	// 0 means no cap (single-consumer outputs).
	OutWords int64
}

// Edge is a producer→consumer data dependency carrying Words 16-bit
// words (a Q15 complex value is two words). Same-tile edges cost
// nothing; cross-tile edges become NoC transfers.
type Edge struct {
	// From and To are task IDs, From < To.
	From, To int
	// Words is the payload in 16-bit words.
	Words int64
}

// Graph is an estimator pipeline partitioned into a task DAG.
type Graph struct {
	// Name identifies the pipeline, e.g. "fam".
	Name string
	// WindowSamples is the number of input samples one evaluation of the
	// graph consumes — the numerator of every throughput figure.
	WindowSamples int
	// Tasks holds the tasks indexed by ID.
	Tasks []Task
	// Edges holds the data dependencies.
	Edges []Edge
}

// Validate checks structural soundness: dense IDs, edges between valid
// tasks with From < To (which makes the graph acyclic and ID order a
// topological order), positive cycle costs.
func (g *Graph) Validate() error {
	if len(g.Tasks) == 0 {
		return fmt.Errorf("tile: graph %q has no tasks", g.Name)
	}
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("tile: graph %q task %d carries ID %d", g.Name, i, t.ID)
		}
		if t.Cycles < 0 {
			return fmt.Errorf("tile: graph %q task %s has negative cycles %d", g.Name, t.Name, t.Cycles)
		}
		if t.OutWords < 0 {
			return fmt.Errorf("tile: graph %q task %s has negative output words %d", g.Name, t.Name, t.OutWords)
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Tasks) || e.To < 0 || e.To >= len(g.Tasks) {
			return fmt.Errorf("tile: graph %q edge %d->%d outside tasks [0,%d)", g.Name, e.From, e.To, len(g.Tasks))
		}
		if e.From >= e.To {
			return fmt.Errorf("tile: graph %q edge %d->%d is not topological (want From < To)", g.Name, e.From, e.To)
		}
		if e.Words < 0 {
			return fmt.Errorf("tile: graph %q edge %d->%d carries negative words %d", g.Name, e.From, e.To, e.Words)
		}
	}
	return nil
}

// TotalCycles sums the compute cycles of every task — the single-tile
// serial cost of one window.
func (g *Graph) TotalCycles() int64 {
	var sum int64
	for _, t := range g.Tasks {
		sum += t.Cycles
	}
	return sum
}

// Stages returns the number of pipeline stages (max Stage + 1).
func (g *Graph) Stages() int {
	max := -1
	for _, t := range g.Tasks {
		if t.Stage > max {
			max = t.Stage
		}
	}
	return max + 1
}

// inEdges returns, per task ID, the indices into g.Edges of its incoming
// edges.
func (g *Graph) inEdges() [][]int {
	in := make([][]int, len(g.Tasks))
	for i, e := range g.Edges {
		in[e.To] = append(in[e.To], i)
	}
	return in
}
