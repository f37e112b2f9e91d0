package preprocess

import (
	"context"
	"errors"
	"sync"
	"time"
)

// poolMember is one producer of a Service's fleet plus its health
// state.
type poolMember struct {
	addr string

	mu        sync.Mutex
	client    *Client
	downUntil time.Time
	closed    bool
}

// available reports whether the member is outside its failure cooldown.
func (m *poolMember) available(now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return now.After(m.downUntil)
}

// markDown opens the member's failure cooldown and drops its
// connection so the next attempt re-dials.
func (m *poolMember) markDown(until time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if until.After(m.downUntil) {
		m.downUntil = until
	}
	if m.client != nil {
		m.client.Close()
		m.client = nil
	}
}

// fetchTenant runs one tenant-keyed request at the tenant's DP width
// against this member, dialing lazily. The member lock serialises
// requests on the shared connection (the Client serialises anyway;
// holding the lock keeps dial/teardown atomic with the request). The
// connection is dropped on transport failure (a serverError is a
// protocol answer: the connection stays).
func (m *poolMember) fetchTenant(ctx context.Context, tenant uint32, dp int, iter int64, rank int) (*RankBatch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errServiceClosed
	}
	if m.client == nil {
		c, err := dial(m.addr, dialTimeout, fetchTimeout)
		if err != nil {
			return nil, err
		}
		m.client = c
	}
	rb, err := m.client.FetchTenant(ctx, tenant, dp, iter, rank)
	if err != nil {
		var se *serverError
		if !errors.As(err, &se) {
			// Transport failure: the connection is suspect either way.
			m.client.Close()
			m.client = nil
		}
		return nil, err
	}
	return rb, nil
}

// close tears down the member's connection. The closed flag is set
// under the same lock fetchTenant dials under, so a racing fetch either
// loses (sees closed, never dials) or wins (its fresh connection is
// closed here) — no connection leaks either way.
func (m *poolMember) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	if m.client != nil {
		m.client.Close()
		m.client = nil
	}
}
