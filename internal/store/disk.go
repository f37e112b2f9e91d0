package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"disttrain/internal/metrics"
)

// entryMagic versions the on-disk entry format. Bumping it orphans old
// entries (they fail the header check and read as misses), which is the
// correct migration for a cache.
const entryMagic = "disttrain-store/v1"

// Disk is the on-disk backend: one file per key under a single
// directory, each entry a header naming the payload's SHA-256 and
// length followed by the payload bytes.
//
// Writes go through metrics.WriteFileAtomic (temp file in the same
// directory, fsync, rename, parent-directory fsync), so concurrent
// writers are last-write-wins at rename granularity and a reader can
// never observe a torn entry — it sees either the old complete file or
// the new complete file. Crash-truncated or bit-flipped entries fail
// the header check on load and degrade to a miss, reported through the
// corruption hook instead of failing the caller.
type Disk struct {
	dir string
	// onCorrupt observes every entry skipped by an integrity failure:
	// it logs to stderr, and the store's fault tests replace it. It may
	// be called from any goroutine that hits a corrupt entry.
	onCorrupt func(key string, err error)
	corrupt   atomic.Int64
}

// OpenDisk opens (creating if needed) a directory-backed store.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Disk{
		dir: dir,
		onCorrupt: func(key string, err error) {
			log.Printf("store: skipping corrupt entry %s: %v", key, err)
		},
	}, nil
}

// CorruptSkips returns how many corrupt entries Get has skipped.
func (d *Disk) CorruptSkips() int64 { return d.corrupt.Load() }

func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key+".entry")
}

// Get loads and integrity-checks the entry for key. A missing file is a
// plain miss; an unreadable or corrupt entry (bad header, short
// payload, hash mismatch) counts as a corruption skip and is also a
// miss.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	raw, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		d.corrupt.Add(1)
		d.onCorrupt(key, err)
		return nil, false, nil
	}
	return payload, true, nil
}

// Put atomically replaces the entry for key.
func (d *Disk) Put(key string, payload []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %d\n", entryMagic, hex.EncodeToString(sum[:]), len(payload))
	return metrics.WriteFileAtomic(d.path(key), func(w io.Writer) error {
		if _, err := io.WriteString(w, header); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
}

// decodeEntry validates "<magic> <sha256 hex> <len>\n<payload>".
func decodeEntry(raw []byte) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, errors.New("truncated header")
	}
	fields := bytes.Fields(raw[:nl])
	if len(fields) != 3 || string(fields[0]) != entryMagic {
		return nil, fmt.Errorf("bad header %q", raw[:nl])
	}
	wantLen, err := strconv.Atoi(string(fields[2]))
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("bad payload length %q", fields[2])
	}
	payload := raw[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), wantLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[1]) {
		return nil, errors.New("payload hash mismatch")
	}
	return payload, nil
}
