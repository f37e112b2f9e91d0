package preprocess

import (
	"fmt"
	"net"
	"sync"
)

// producer is one in-process fleet member: a Server plus its TCP
// listener. A restarted producer gets a fresh Server (no iterations
// built, no routes known) on its old address — exactly what a
// replacement CPU node looks like, and safe because producers are
// stateless deterministic functions of the request.
type producer struct {
	cfg Config

	mu   sync.Mutex
	addr string // listen address; the bound one once started
	srv  *Server
	ln   net.Listener
}

// start brings a stopped producer up on its address; starting a running
// producer is a no-op.
func (p *producer) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.srv != nil {
		return nil
	}
	srv, err := NewServer(p.cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		srv.Close()
		return err
	}
	p.srv, p.ln, p.addr = srv, ln, ln.Addr().String()
	go srv.Serve(ln) //nolint:errcheck // terminated by stop
	return nil
}

// stop kills the producer: the listener closes and every active
// connection is torn down, so consumers see connection errors and fail
// over. Stopping a stopped producer is a no-op.
func (p *producer) stop() {
	p.mu.Lock()
	srv, ln := p.srv, p.ln
	p.srv, p.ln = nil, nil
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if srv != nil {
		srv.Close()
	}
}

// Fleet is a set of local producers sharing one configuration — the
// in-process stand-in for the paper's elastic CPU-node fleet. Scenario
// producer-fail / producer-join events kill and restore its members
// mid-run through FailProducer and JoinProducer.
type Fleet struct {
	producers []*producer
}

// StartFleet launches n producers on random loopback ports.
func StartFleet(cfg Config, n int) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("preprocess: fleet needs at least one producer, got %d", n)
	}
	f := &Fleet{}
	for i := 0; i < n; i++ {
		p := &producer{cfg: cfg, addr: "127.0.0.1:0"}
		if err := p.start(); err != nil {
			f.Close()
			return nil, err
		}
		f.producers = append(f.producers, p)
	}
	return f, nil
}

// Addrs returns the fleet's producer addresses, in member order.
func (f *Fleet) Addrs() []string {
	out := make([]string, len(f.producers))
	for i, p := range f.producers {
		p.mu.Lock()
		out[i] = p.addr
		p.mu.Unlock()
	}
	return out
}

func (f *Fleet) member(i int) (*producer, error) {
	if i < 0 || i >= len(f.producers) {
		return nil, fmt.Errorf("preprocess: producer %d outside fleet of %d", i, len(f.producers))
	}
	return f.producers[i], nil
}

// FailProducer kills member i.
func (f *Fleet) FailProducer(i int) error {
	p, err := f.member(i)
	if err != nil {
		return err
	}
	p.stop()
	return nil
}

// JoinProducer restores member i on its previous address.
func (f *Fleet) JoinProducer(i int) error {
	p, err := f.member(i)
	if err != nil {
		return err
	}
	return p.start()
}

// Close stops every producer.
func (f *Fleet) Close() {
	for _, p := range f.producers {
		p.stop()
	}
}
