package tile

import (
	"fmt"
	"sort"

	"tiledcfd/internal/montium"
	"tiledcfd/internal/scf"
)

// Span is one task's occupancy of one tile in cycles [Start, End).
type Span struct {
	// Task is the task ID; Tile the tile it ran on.
	Task, Tile int
	// Start and End bound the task's execution in fabric cycles.
	Start, End int64
}

// Transfer is one producer's NoC movement to one destination tile. A
// producer whose output feeds several consumers on the same remote tile
// ships their data once (multicast within the tile is local), so
// transfers are keyed by (producer task, destination tile) and sized by
// the summed consumer demands capped at the producer's total distinct
// output — exact when consumers read disjoint slices (SSCA strips),
// the union when they overlap (FAM rows).
type Transfer struct {
	// From is the producing task.
	From int
	// FromTile and ToTile are the endpoint tiles.
	FromTile, ToTile int
	// Words is the payload in 16-bit words; Cycles the port
	// serialisation time it occupies at both endpoints.
	Words, Cycles int64
	// Start and End bound the port occupancy; the payload is available
	// to consumers at End plus the link latency.
	Start, End int64
}

// TileUse is one tile's accounted load over a scheduled window.
type TileUse struct {
	// Tile is the tile index.
	Tile int
	// Tasks counts the tasks mapped onto the tile.
	Tasks int
	// ComputeCycles is the tile's summed task cycle cost.
	ComputeCycles int64
	// SendWords and RecvWords count the 16-bit words the tile's NoC
	// ports moved out and in.
	SendWords, RecvWords int64
	// IOCycles is the port occupancy those words serialise to at the
	// fabric's link bandwidth.
	IOCycles int64
	// MemWords is the largest single-task resident footprint mapped to
	// the tile — the local-memory feasibility figure (tasks on one tile
	// run serially, so transient buffers do not stack; surfaces stream
	// out rather than residing whole).
	MemWords int64
}

// MemOK reports whether the tile's footprint fits the given local
// memory capacity.
func (u TileUse) MemOK(capacityWords int) bool { return u.MemWords <= int64(capacityWords) }

// Schedule is a task DAG list-scheduled onto a fabric with one mapping
// strategy: the predicted execution of one window.
type Schedule struct {
	// Graph is the scheduled pipeline.
	Graph *Graph
	// Fabric is the platform scheduled onto, with defaults applied.
	Fabric Fabric
	// Strategy names the mapping (Strategies lists the options).
	Strategy string
	// Assignment maps task ID to tile.
	Assignment []int
	// Spans holds every task's scheduled interval, in task-ID order.
	Spans []Span
	// Transfers lists the coalesced cross-tile movements the schedule
	// charged, in the order their first consumer demanded them.
	Transfers []Transfer
	// PerTile is the per-tile load accounting, indexed by tile.
	PerTile []TileUse
	// Makespan is the end-to-end latency of one window in cycles.
	Makespan int64
	// NoCWords and NoCCycles total the cross-tile traffic and its
	// modeled cost (serialisation plus per-transfer latency).
	NoCWords, NoCCycles int64
	// BottleneckCycles is the busiest tile's occupancy per window —
	// max over tiles of max(compute, NoC port cycles) — the steady-state
	// initiation interval when consecutive windows pipeline.
	BottleneckCycles int64
}

// NewSchedule maps g onto the fabric with the named strategy and
// list-schedules it: tasks run in topological (ID) order, each starting
// when its tile is free and all inputs have arrived. Cross-tile inputs
// queue on the endpoint tiles' NoC ports (one DMA engine per tile), pay
// the serialisation time at the link bandwidth plus the link latency,
// and are shipped once per destination tile however many consumers
// live there. The returned schedule is validated.
func NewSchedule(g *Graph, fab Fabric, strategy string) (*Schedule, error) {
	fab = fab.WithDefaults()
	if err := fab.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	asg, err := Assign(g, strategy, fab.Tiles)
	if err != nil {
		return nil, err
	}
	s := &Schedule{
		Graph:      g,
		Fabric:     fab,
		Strategy:   strategy,
		Assignment: asg,
		PerTile:    make([]TileUse, fab.Tiles),
	}
	for t := range s.PerTile {
		s.PerTile[t].Tile = t
	}
	// Coalesce: the words a producer must ship to each destination tile
	// is the sum of the consumer demands there, capped at the producer's
	// total distinct output (consumers reading disjoint slices sum
	// exactly; overlapping readers cannot need more than everything the
	// producer made).
	type route struct{ from, toTile int }
	groupWords := make(map[route]int64)
	for _, e := range g.Edges {
		if from, to := asg[e.From], asg[e.To]; from != to {
			groupWords[route{e.From, to}] += e.Words
		}
	}
	for r, words := range groupWords {
		if limit := g.Tasks[r.from].OutWords; limit > 0 && words > limit {
			groupWords[r] = limit
		}
	}
	in := g.inEdges()
	finish := make([]int64, len(g.Tasks))
	tileFree := make([]int64, fab.Tiles)
	portFree := make([]int64, fab.Tiles)
	arrived := make(map[route]int64) // payload availability at the destination
	for id, task := range g.Tasks {
		tile := asg[id]
		var ready int64
		for _, ei := range in[id] {
			e := g.Edges[ei]
			at := finish[e.From]
			if from := asg[e.From]; from != tile {
				r := route{e.From, tile}
				avail, ok := arrived[r]
				if !ok {
					// First consumer on this tile: schedule the transfer.
					words := groupWords[r]
					ser := montium.TransferCycles(words, 0, fab.LinkWordsPerCycle)
					start := maxInt64(finish[e.From], portFree[from], portFree[tile])
					end := start + ser
					portFree[from], portFree[tile] = end, end
					avail = end + int64(fab.LinkLatency)
					arrived[r] = avail
					s.Transfers = append(s.Transfers, Transfer{
						From: e.From, FromTile: from, ToTile: tile,
						Words: words, Cycles: ser, Start: start, End: end,
					})
					s.NoCWords += words
					s.NoCCycles += ser + int64(fab.LinkLatency)
					s.PerTile[from].SendWords += words
					s.PerTile[tile].RecvWords += words
				}
				at = avail
			}
			if at > ready {
				ready = at
			}
		}
		start := maxInt64(ready, tileFree[tile])
		end := start + task.Cycles
		tileFree[tile] = end
		finish[id] = end
		s.Spans = append(s.Spans, Span{Task: id, Tile: tile, Start: start, End: end})
		u := &s.PerTile[tile]
		u.Tasks++
		u.ComputeCycles += task.Cycles
		if task.MemWords > u.MemWords {
			u.MemWords = task.MemWords
		}
		if end > s.Makespan {
			s.Makespan = end
		}
	}
	for t := range s.PerTile {
		u := &s.PerTile[t]
		u.IOCycles = montium.TransferCycles(u.SendWords+u.RecvWords, 0, fab.LinkWordsPerCycle)
		busy := u.ComputeCycles
		if u.IOCycles > busy {
			busy = u.IOCycles
		}
		if busy > s.BottleneckCycles {
			s.BottleneckCycles = busy
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func maxInt64(vs ...int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Validate re-derives the schedule's invariants from its spans rather
// than trusting construction: no tile runs two tasks at once, every
// cross-tile route (producer, destination tile) was charged exactly one
// NoC transfer, the per-tile compute accounting conserves the graph's
// total cycles, and the steady-state bottleneck never exceeds the
// one-window makespan.
func (s *Schedule) Validate() error {
	perTile := make([][]Span, s.Fabric.Tiles)
	for _, sp := range s.Spans {
		if sp.Tile < 0 || sp.Tile >= s.Fabric.Tiles {
			return fmt.Errorf("tile: span of task %d on tile %d outside fabric of %d", sp.Task, sp.Tile, s.Fabric.Tiles)
		}
		perTile[sp.Tile] = append(perTile[sp.Tile], sp)
	}
	for t, spans := range perTile {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End {
				return fmt.Errorf("tile: tile %d oversubscribed: task %d [%d,%d) overlaps task %d [%d,%d)",
					t, spans[i].Task, spans[i].Start, spans[i].End,
					spans[i-1].Task, spans[i-1].Start, spans[i-1].End)
			}
		}
	}
	type route struct{ from, toTile int }
	routes := make(map[route]bool)
	for _, e := range s.Graph.Edges {
		if s.Assignment[e.From] != s.Assignment[e.To] {
			routes[route{e.From, s.Assignment[e.To]}] = true
		}
	}
	if len(routes) != len(s.Transfers) {
		return fmt.Errorf("tile: %d cross-tile routes but %d NoC transfers accounted", len(routes), len(s.Transfers))
	}
	for _, tr := range s.Transfers {
		if !routes[route{tr.From, tr.ToTile}] {
			return fmt.Errorf("tile: transfer of task %d to tile %d matches no cross-tile edge", tr.From, tr.ToTile)
		}
	}
	var compute int64
	for _, u := range s.PerTile {
		compute += u.ComputeCycles
	}
	if total := s.Graph.TotalCycles(); compute != total {
		return fmt.Errorf("tile: per-tile compute %d cycles does not conserve graph total %d", compute, total)
	}
	if s.BottleneckCycles > s.Makespan {
		return fmt.Errorf("tile: bottleneck %d cycles exceeds makespan %d", s.BottleneckCycles, s.Makespan)
	}
	return nil
}

// LatencyMicros converts the makespan to microseconds at the fabric
// clock.
func (s *Schedule) LatencyMicros() float64 {
	return float64(s.Makespan) / s.Fabric.ClockMHz
}

// SustainedSamplesPerSec is the predicted steady-state throughput when
// consecutive windows pipeline through the fabric: the window's samples
// over the bottleneck tile's occupancy.
func (s *Schedule) SustainedSamplesPerSec() float64 {
	if s.BottleneckCycles == 0 {
		return 0
	}
	return float64(s.Graph.WindowSamples) * s.Fabric.ClockMHz * 1e6 / float64(s.BottleneckCycles)
}

// OneShotSamplesPerSec is the single-window throughput: the window's
// samples over the end-to-end latency.
func (s *Schedule) OneShotSamplesPerSec() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.Graph.WindowSamples) * s.Fabric.ClockMHz * 1e6 / float64(s.Makespan)
}

// Utilization returns tile t's compute occupancy over the makespan, in
// [0, 1].
func (s *Schedule) Utilization(t int) float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.PerTile[t].ComputeCycles) / float64(s.Makespan)
}

// MemFeasible reports whether every tile's footprint fits the fabric's
// local memory.
func (s *Schedule) MemFeasible() bool {
	for _, u := range s.PerTile {
		if !u.MemOK(s.Fabric.LocalMemWords) {
			return false
		}
	}
	return true
}

// PerTileStats exports the schedule's per-tile breakdown in the
// scf.Stats form, so mapping estimates ride the same stats plumbing as
// the estimators.
func (s *Schedule) PerTileStats() []scf.TileCycles {
	out := make([]scf.TileCycles, len(s.PerTile))
	for i, u := range s.PerTile {
		out[i] = scf.TileCycles{Tile: u.Tile, Compute: u.ComputeCycles, Transfer: u.IOCycles}
	}
	return out
}
