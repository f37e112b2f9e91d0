// Package dfs is the distributed file system substrate of §3: training
// data and model checkpoints live on a DFS; DistTrain "adopts a
// dedicated process to periodically and asynchronously save model
// checkpoints... for fault tolerance" and "handles failures by
// automatically recovering the training from the latest model
// checkpoint" (§6). The store is in-memory with a fixed
// bandwidth/latency model — a few GB/s per client and millisecond
// metadata operations — so the trainer can charge realistic (simulated)
// durations while the checkpoint manager exercises real concurrency.
package dfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// The DFS's production-like characteristics: a few GB/s per client and
// millisecond metadata operations.
const (
	// writeBps and readBps are per-client bandwidths in bytes/s.
	writeBps, readBps = 3e9, 5e9
	// latency is the per-operation metadata latency in seconds.
	latency = 2e-3
)

// WriteSeconds returns the simulated time for clients to write bytes
// in parallel, equal shards.
func WriteSeconds(bytes float64, clients int) float64 {
	return latency + bytes/(writeBps*float64(clients))
}

// ReadSeconds returns the simulated time for clients to read bytes in
// parallel, equal shards.
func ReadSeconds(bytes float64, clients int) float64 {
	return latency + bytes/(readBps*float64(clients))
}

// FS is a simulated distributed file system.
type FS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// New returns an empty DFS.
func New() *FS {
	return &FS{files: map[string][]byte{}}
}

// Write stores a file.
func (f *FS) Write(name string, data []byte) error {
	if name == "" {
		return errors.New("dfs: empty file name")
	}
	stored := append([]byte(nil), data...)
	f.mu.Lock()
	f.files[name] = stored
	f.mu.Unlock()
	return nil
}

// Read fetches a file and its simulated transfer duration.
func (f *FS) Read(name string) ([]byte, float64, error) {
	f.mu.RLock()
	data, ok := f.files[name]
	f.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("dfs: %s not found", name)
	}
	out := append([]byte(nil), data...)
	return out, ReadSeconds(float64(len(out)), 1), nil
}

// List returns every file name, sorted.
func (f *FS) List() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.files))
	for name := range f.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Checkpoint is one saved training state.
type Checkpoint struct {
	Step  int
	State []byte
}

// CheckpointManager saves checkpoints asynchronously on a dedicated
// goroutine (§3's "dedicated process") to a DFS of its own and
// recovers the latest on demand. Saves never block training: if the
// writer is still busy when the next save arrives, the new state
// replaces the pending one (only the freshest state matters for
// recovery).
type CheckpointManager struct {
	fs *FS

	mu   sync.Mutex
	cond *sync.Cond
	// pending is the freshest unsaved state; saving marks an in-flight
	// write.
	pending *Checkpoint
	saving  bool
	saved   int
	wake    chan struct{}
	done    chan struct{}
	closed  bool
}

// NewCheckpointManager starts the background writer.
func NewCheckpointManager(fs *FS) *CheckpointManager {
	m := &CheckpointManager{
		fs:   fs,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	go m.loop()
	return m
}

func (m *CheckpointManager) loop() {
	defer close(m.done)
	for range m.wake {
		for {
			m.mu.Lock()
			ck := m.pending
			m.pending = nil
			if ck == nil {
				m.saving = false
				m.cond.Broadcast()
				m.mu.Unlock()
				break
			}
			m.saving = true
			m.mu.Unlock()

			name := fmt.Sprintf("ckpt-%08d", ck.Step)
			err := m.fs.Write(name, encode(ck))
			m.mu.Lock()
			if err == nil {
				m.saved++
			}
			m.mu.Unlock()
		}
	}
	m.mu.Lock()
	m.saving = false
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Flush blocks until every enqueued checkpoint has reached the DFS.
func (m *CheckpointManager) Flush() {
	m.mu.Lock()
	for m.pending != nil || m.saving {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// Save enqueues a checkpoint without blocking. A save already in
// flight continues; a queued-but-unstarted save is superseded.
func (m *CheckpointManager) Save(ck Checkpoint) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errors.New("dfs: checkpoint manager closed")
	}
	m.pending = &ck
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return nil
}

// Saved returns how many checkpoints reached the DFS.
func (m *CheckpointManager) Saved() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saved
}

// Close stops the writer after draining pending work.
func (m *CheckpointManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.wake)
	<-m.done
}

// Latest recovers the newest checkpoint from the DFS — the §6 failure
// recovery path — with the simulated DFS read duration, so the
// recovery path can charge the restore time against the run.
func (m *CheckpointManager) Latest() (Checkpoint, float64, error) {
	names := m.fs.List()
	if len(names) == 0 {
		return Checkpoint{}, 0, errors.New("dfs: no checkpoints")
	}
	data, d, err := m.fs.Read(names[len(names)-1])
	if err != nil {
		return Checkpoint{}, 0, err
	}
	ck, err := decode(data)
	return ck, d, err
}

// encode/decode use a trivial length-prefixed layout: 8-byte step then
// the state.
func encode(ck *Checkpoint) []byte {
	out := make([]byte, 8+len(ck.State))
	step := uint64(ck.Step)
	for i := 0; i < 8; i++ {
		out[i] = byte(step >> (8 * i))
	}
	copy(out[8:], ck.State)
	return out
}

func decode(data []byte) (Checkpoint, error) {
	if len(data) < 8 {
		return Checkpoint{}, errors.New("dfs: corrupt checkpoint")
	}
	var step uint64
	for i := 0; i < 8; i++ {
		step |= uint64(data[i]) << (8 * i)
	}
	return Checkpoint{Step: int(step), State: append([]byte(nil), data[8:]...)}, nil
}
