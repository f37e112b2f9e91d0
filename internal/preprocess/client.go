package preprocess

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is the consumer side of disaggregated preprocessing: one
// connection to one producer, over which the GPU training process
// fetches ready microbatches. It dials lazily, re-dials once when a
// reused connection fails before any reply byte (a restarted producer
// is reached again without a failed fetch), drops its connection on
// any other transport failure so the next request re-dials, and keeps
// the failure cooldown a Service skips it during.
type Client struct {
	addr string
	// connect bounds one connection attempt (0 means the operating
	// system default); roundTrip bounds one request.
	connect, roundTrip time.Duration

	mu        sync.Mutex
	conn      net.Conn // nil until dialed and after a transport failure
	br        *bufio.Reader
	bw        *bufio.Writer
	downUntil time.Time // end of the failure cooldown
	closed    bool
}

var errClientClosed = errors.New("preprocess: client closed")

// Dial connects to a producer under the operating system's connect
// timeout, bounding each request round trip at 120 s.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr, roundTrip: 120 * time.Second}
	if err := c.dial(); err != nil {
		return nil, err
	}
	return c, nil
}

// dial opens the connection; the caller holds mu or is the client's
// only user.
func (c *Client) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.connect)
	if err != nil {
		return fmt.Errorf("preprocess: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 1<<20)
	c.bw = bufio.NewWriter(conn)
	return nil
}

// drop tears the connection down; the caller holds mu.
func (c *Client) drop() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br, c.bw = nil, nil, nil
	return err
}

// Close tears down the connection; later requests fail. The closed
// flag is set under the lock requests dial under, so a request racing
// Close either never dials or has its fresh connection closed here.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.drop()
}

// available reports whether the client is outside its failure cooldown.
// It waits behind a request in flight on purpose: a lock-free read let
// preprocess-fanin's concurrent rank fetches queue on the connection
// instead, and measured 2-3% slower per op.
func (c *Client) available(now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return now.After(c.downUntil)
}

// markDown opens the failure cooldown until the given time.
func (c *Client) markDown(until time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if until.After(c.downUntil) {
		c.downUntil = until
	}
}

// FetchTenant requests one (tenant, iteration, rank) batch split
// across dp data-parallel ranks. Requests on one client are serialised;
// use one client per consumer rank (the production layout).
func (c *Client) FetchTenant(ctx context.Context, tenant uint32, dp int, iter int64, rank int) (*RankBatch, error) {
	req := make([]byte, 0, fetchRequestLen)
	req = append(req, opFetchTenant)
	req = binary.BigEndian.AppendUint32(req, tenant)
	req = binary.BigEndian.AppendUint32(req, uint32(dp))
	req = binary.BigEndian.AppendUint64(req, uint64(iter))
	req = binary.BigEndian.AppendUint32(req, uint32(rank))

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	reused := c.conn != nil
	if !reused {
		if err := c.dial(); err != nil {
			return nil, err
		}
	}
	rb, replied, err := c.roundTripLocked(ctx, req)
	if err != nil && reused && !replied && !isTimeout(err) {
		// A reused connection that fails before any reply byte is most
		// often one a restarted producer closed: re-dial and resend
		// once. Producers are deterministic functions of the request,
		// so the resend cannot change what the fetch returns.
		c.drop()
		if err = c.dial(); err == nil {
			rb, _, err = c.roundTripLocked(ctx, req)
		}
	}
	if err != nil {
		var se *serverError
		if !errors.As(err, &se) {
			// Transport failure: the connection is suspect either way.
			// A serverError is a protocol answer; the connection stays.
			c.drop()
		}
		return nil, err
	}
	return rb, nil
}

// roundTripLocked sends one request frame and parses the answer under
// the round-trip deadline; replied reports whether any reply byte
// arrived. The caller holds mu.
func (c *Client) roundTripLocked(ctx context.Context, req []byte) (rb *RankBatch, replied bool, err error) {
	deadline := time.Now().Add(c.roundTrip)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, false, err
	}
	if err := writeFrame(c.bw, req); err != nil {
		return nil, false, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, false, err
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, false, err
	}
	body, err := readFrame(c.br, maxFrame)
	if err != nil {
		return nil, true, err
	}
	rb, err = parseBatch(body)
	return rb, true, err
}

// isTimeout reports whether err is a deadline expiring: the producer
// may be alive but slow, so resending would only wait out the deadline
// again.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
