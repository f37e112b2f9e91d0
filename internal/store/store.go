// Package store is the persistent control plane's storage seam: a
// minimal key-value Store interface with two backends — an in-memory
// map for ephemeral runs and tests, and an on-disk append-only log of
// integrity-checked records. The orchestrator's plan cache persists
// through this seam.
//
// The contract every backend honours:
//
//   - Get never returns a torn or corrupt payload. Damaged entries are
//     counted (Disk.CorruptSkips) and treated as absent, so damage
//     degrades to a cache miss instead of poisoning startup.
//   - Put is last-write-wins under concurrent writers, and a reader
//     concurrent with any number of writers sees exactly one complete
//     payload (never a mix).
//   - Put buys integrity, not durability: an entry survives process
//     exit, but power loss may lose it, and a lost entry reads as a
//     miss.
package store

import (
	"fmt"
	"sync"
)

// Store is the backend seam.
type Store interface {
	// Get returns the payload stored under key. ok is false when the
	// key is absent or its entry failed the integrity check; err is
	// reserved for real I/O failures.
	Get(key string) (payload []byte, ok bool, err error)
	// Put replaces the entry under key with payload.
	Put(key string, payload []byte) error
}

// validateKey enforces the key alphabet shared by all backends, so a
// key that works in memory also fits a log record's header: non-empty,
// and every byte from [A-Za-z0-9._-], not starting with a dot.
func validateKey(key string) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if key[0] == '.' {
		return fmt.Errorf("store: key %q starts with a dot", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: key %q contains %q (want [A-Za-z0-9._-])", key, c)
		}
	}
	return nil
}

// Mem is the in-memory backend: a mutex-guarded map holding private
// copies of every payload. Safe for concurrent use.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Get returns a private copy of the stored payload.
func (s *Mem) Get(key string) ([]byte, bool, error) {
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), p...), true, nil
}

// Put stores a private copy of payload under key.
func (s *Mem) Put(key string, payload []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), payload...)
	return nil
}
