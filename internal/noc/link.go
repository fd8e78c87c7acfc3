package noc

import (
	"fmt"
	"sync/atomic"

	"tiledcfd/internal/fixed"
)

// Link is a unidirectional, flow-controlled connection carrying complex
// chain values between two tiles. It is safe for one sender and one
// receiver goroutine.
type Link struct {
	name   string
	ch     chan fixed.Complex
	abort  <-chan struct{}
	broken atomic.Bool
	sent   atomic.Int64
	recvd  atomic.Int64
}

// newLink creates a link with the given buffer depth (>= 1 so one value
// per shift never blocks a healthy lockstep schedule).
func newLink(name string, depth int, abort <-chan struct{}) *Link {
	if depth < 1 {
		depth = 1
	}
	return &Link{name: name, ch: make(chan fixed.Complex, depth), abort: abort}
}

// Send transmits one value. It fails if the link is broken or the fabric
// aborted.
func (l *Link) Send(v fixed.Complex) error {
	if l.broken.Load() {
		return fmt.Errorf("noc: link %s is broken", l.name)
	}
	select {
	case l.ch <- v:
		l.sent.Add(1)
		return nil
	case <-l.abort:
		return fmt.Errorf("noc: link %s aborted during send", l.name)
	}
}

// Recv receives one value. It fails if the link is broken or the fabric
// aborted.
func (l *Link) Recv() (fixed.Complex, error) {
	if l.broken.Load() {
		return fixed.Complex{}, fmt.Errorf("noc: link %s is broken", l.name)
	}
	select {
	case v := <-l.ch:
		l.recvd.Add(1)
		return v, nil
	case <-l.abort:
		return fixed.Complex{}, fmt.Errorf("noc: link %s aborted during receive", l.name)
	}
}

// Break injects a permanent link fault: all future Send/Recv calls fail.
func (l *Link) Break() { l.broken.Store(true) }

// Traffic returns how many values have crossed the link (sent, received).
func (l *Link) Traffic() (sent, received int64) {
	return l.sent.Load(), l.recvd.Load()
}
